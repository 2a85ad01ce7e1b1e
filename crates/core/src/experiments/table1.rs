//! Experiment E1 — the paper's **Table 1**: the latency of
//! "communicating" 1 KB six different ways.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use faasim_faas::FunctionSpec;
use faasim_kv::Consistency;
use faasim_simcore::{Histogram, SimDuration};

use crate::cloud::{Cloud, CloudProfile};
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

#[derive(Copy, Clone, PartialEq)]
enum Medium {
    Blob,
    Kv,
}

/// Run the experiment.
pub fn run(params: &Table1Params, seed: u64) -> Table1Result {
    let mut profile = CloudProfile::aws_2018();
    if params.exact {
        profile = profile.exact();
    }
    if params.firecracker {
        profile = profile.firecracker();
    }
    let cloud = Cloud::new(profile, seed);
    let payload = Bytes::from(vec![0u8; params.payload_bytes]);
    cloud.blob.create_bucket("bench");
    cloud.kv.create_table("bench");

    let mut rows = Vec::new();

    // --- Column 1: no-op function invocation on a 1KB argument ----------
    {
        cloud.faas.register(FunctionSpec::new(
            "noop",
            128,
            SimDuration::from_secs(60),
            |_ctx, payload| async move { Ok(payload) },
        ));
        let faas = cloud.faas.clone();
        let p = payload.clone();
        let n = params.invocations;
        let hist = cloud.sim.block_on(async move {
            // Warm the container outside the measurement; across the
            // paper's 1,000-call average the one cold start washes out.
            faas.invoke("noop", p.clone()).await;
            let mut hist = Histogram::new();
            for _ in 0..n {
                let out = faas.invoke("noop", p.clone()).await;
                out.result.expect("noop cannot fail");
                hist.record_duration(out.total);
            }
            hist
        });
        rows.push(Table1Row {
            label: "Func. Invoc. (1KB)",
            mean: SimDuration::from_secs_f64(hist.mean()),
            samples: hist.count(),
        });
    }

    // --- Columns 2 & 3: explicit I/O from a long-running Lambda ---------
    for (label, medium) in [
        ("Lambda I/O (S3)", Medium::Blob),
        ("Lambda I/O (DynamoDB)", Medium::Kv),
    ] {
        let hist = lambda_io(&cloud, medium, params.io_trials, payload.clone());
        rows.push(Table1Row {
            label,
            mean: SimDuration::from_secs_f64(hist.mean()),
            samples: hist.count(),
        });
    }

    // --- Columns 4 & 5: the same I/O from an EC2 instance ---------------
    for (label, medium) in [
        ("EC2 I/O (S3)", Medium::Blob),
        ("EC2 I/O (DynamoDB)", Medium::Kv),
    ] {
        let vm = cloud.ec2.provision_ready("m5.large", 0).expect("m5.large");
        let host = vm.host().clone();
        let blob = cloud.blob.clone();
        let kv = cloud.kv.clone();
        let sim = cloud.sim.clone();
        let p = payload.clone();
        let n = params.io_trials;
        let key = format!("ec2-{label}");
        let hist = cloud.sim.block_on(async move {
            let mut hist = Histogram::new();
            for _ in 0..n {
                let t0 = sim.now();
                match medium {
                    Medium::Blob => {
                        blob.put(&host, "bench", &key, p.clone()).await.unwrap();
                        blob.get(&host, "bench", &key).await.unwrap();
                    }
                    Medium::Kv => {
                        kv.put(&host, "bench", &key, p.clone()).await.unwrap();
                        kv.get(&host, "bench", &key, Consistency::Strong)
                            .await
                            .unwrap();
                    }
                }
                hist.record_duration(sim.now() - t0);
            }
            hist
        });
        vm.terminate();
        rows.push(Table1Row {
            label,
            mean: SimDuration::from_secs_f64(hist.mean()),
            samples: hist.count(),
        });
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
        let p = payload.clone();
        let n = params.rtt_trials;
        let hist = cloud.sim.block_on(async move {
            let mut hist = Histogram::new();
            for _ in 0..n {
                let (_, rtt) = sa.request_timed(to, p.clone()).await.unwrap();
                hist.record_duration(rtt);
            }
            hist
        });
        rows.push(Table1Row {
            label: "EC2 NW (0MQ)",
            mean: SimDuration::from_secs_f64(hist.mean()),
            samples: hist.count(),
        });
    }

    let mut probe = ExperimentProbe::new();
    probe.capture(&cloud);
    Table1Result { rows, probe }
}

/// Issue `trials` write+read pairs from inside Lambda function bodies,
/// re-invoking as the 15-minute lifetime runs out (the paper's
/// "long-running function" driver).
fn lambda_io(cloud: &Cloud, medium: Medium, trials: usize, payload: Bytes) -> Histogram {
    let results: Rc<RefCell<Histogram>> = Rc::new(RefCell::new(Histogram::new()));
    let fn_name = match medium {
        Medium::Blob => "io-blob",
        Medium::Kv => "io-kv",
    };
    let blob = cloud.blob.clone();
    let kv = cloud.kv.clone();
    let res = results.clone();
    cloud.faas.register(FunctionSpec::new(
        fn_name,
        1_024,
        SimDuration::from_secs(900),
        move |ctx, payload| {
            let blob = blob.clone();
            let kv = kv.clone();
            let res = res.clone();
            async move {
                let want = u64::from_le_bytes(payload.bytes()[..8].try_into().expect("8-byte count"));
                let body = payload.slice(8..);
                let margin = SimDuration::from_secs(2);
                let key = format!("lambda-io-{}", ctx.container_id());
                let mut done: u64 = 0;
                while done < want && ctx.remaining() > margin {
                    let t0 = ctx.sim().now();
                    match medium {
                        Medium::Blob => {
                            blob.put(ctx.host(), "bench", &key, body.clone())
                                .await
                                .expect("bench bucket");
                            blob.get(ctx.host(), "bench", &key).await.expect("get");
                        }
                        Medium::Kv => {
                            kv.put(ctx.host(), "bench", &key, body.clone())
                                .await
                                .expect("bench table");
                            kv.get(ctx.host(), "bench", &key, Consistency::Strong)
                                .await
                                .expect("get");
                        }
                    }
                    res.borrow_mut().record_duration(ctx.sim().now() - t0);
                    done += 1;
                }
                Ok(Bytes::from(done.to_le_bytes().to_vec()))
            }
        },
    ));
    let faas = cloud.faas.clone();
    let results2 = results.clone();
    cloud.sim.block_on(async move {
        while (results2.borrow().count() as u64) < trials as u64 {
            let remaining = trials - results2.borrow().count();
            let mut req = Vec::with_capacity(8 + payload.len());
            req.extend_from_slice(&(remaining as u64).to_le_bytes());
            req.extend_from_slice(&payload);
            let out = faas.invoke(fn_name, Bytes::from(req)).await;
            match out.result {
                Ok(_) => {}
                Err(faasim_faas::FnError::TimedOut { .. }) => {}
                Err(e) => panic!("lambda io driver failed: {e}"),
            }
        }
    });
    Rc::try_unwrap(results)
        .map(RefCell::into_inner)
        .unwrap_or_else(|rc| rc.borrow().clone())
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
