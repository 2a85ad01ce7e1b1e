//! Per-layer kernels: each layer's hot operations in isolation, timed
//! around calls to its public functions.
//!
//! A kernel runs `rounds` rounds of `n` operations and reports the median
//! round's host time per operation. Rounds of all kernels are short (tens
//! of milliseconds) so a burst on a shared host spoils a round, not the
//! median. Kernels that run on a [`Sim`] also report the simcore
//! primitives one operation performs ([`Prims`]), read from the engine's
//! own counters, so the budget can separate a layer's own cost from the
//! executor, timer and recorder work it causes.

use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use faasim::agents::AgentRuntime;
use faasim::faas::{FnError, FunctionSpec};
use faasim::kv::Consistency;
use faasim::ml::{BagOfWords, ReviewGenConfig, ReviewGenerator, Trainer};
use faasim::net::{Fabric, NetProfile, NicConfig};
use faasim::payload::{Bytes, Payload};
use faasim::pricing::{Ledger, Service};
use faasim::protocols::{Crdt, GCounter};
use faasim::query::{Aggregate, QuerySpec};
use faasim::queue::QueueConfig;
use faasim::simcore::{mbps, FairShareLink, LazyHist, Recorder, Semaphore, Sim, SimDuration};
use faasim::{Cloud, CloudProfile};
use faasim_chaos::{sweep, CrdtSync, FaultPlan, ParallelSweep};
use faasim_gateway::{Gateway, GatewayConfig, TenantConfig};
use faasim_resilience::{BreakerConfig, CircuitBreaker, Deadline, RetryPolicy, RetryingInvoker};
use faasim_trace::{function_name, QuantileSketch, TraceConfig, TraceGenerator};

use crate::metric::{Kind, Metric};
use crate::span::Tracer;
use crate::stats::median;
use crate::workloads::{self, link_fan_in, log_object, Flow, Sizes, SYNTH_LINE};

/// Simcore primitives performed per operation of a kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Prims {
    /// Timers that fired.
    pub fires: f64,
    /// Timers canceled before firing.
    pub cancels: f64,
    /// Tasks spawned.
    pub spawns: f64,
    /// Histogram samples recorded.
    pub samples: f64,
}

impl Prims {
    fn sub(self, other: Prims) -> Prims {
        Prims {
            fires: self.fires - other.fires,
            cancels: self.cancels - other.cancels,
            spawns: self.spawns - other.spawns,
            samples: self.samples - other.samples,
        }
    }

    fn scaled(self, k: f64) -> Prims {
        Prims {
            fires: self.fires * k,
            cancels: self.cancels * k,
            spawns: self.spawns * k,
            samples: self.samples * k,
        }
    }
}

/// What the kernels measured.
#[derive(Debug, Default)]
pub struct KernelReport {
    /// One `Kind::Kernel` metric per kernel.
    pub metrics: Vec<Metric>,
    /// Simcore primitives per operation, for the kernels that run on a sim.
    pub prims: Vec<(&'static str, Prims)>,
    /// Samples in the recorder that `simcore.recorder_digest_ms` digested.
    pub digest_samples: u64,
}

impl KernelReport {
    /// Value of kernel metric `name`.
    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("kernel {name} did not run"))
            .value
    }

    /// Primitives per operation of kernel `name`.
    pub fn prims(&self, name: &str) -> Prims {
        self.prims
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("kernel {name} reported no primitives"))
            .1
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Engine and recorder counters of a cloud, for before/after deltas.
fn prims_of(cloud: &Cloud) -> Prims {
    let recorder = &cloud.recorder;
    Prims {
        samples: recorder
            .histogram_names()
            .iter()
            .map(|name| recorder.histogram(name).count() as f64)
            .sum(),
        ..prims_of_sim(&cloud.sim)
    }
}

fn prims_of_sim(sim: &Sim) -> Prims {
    let profile = sim.profile();
    Prims {
        fires: profile.timer_fires as f64,
        cancels: profile.timer_cancels as f64,
        spawns: profile.tasks_spawned as f64,
        samples: 0.0,
    }
}

fn noop_spec(name: String) -> FunctionSpec {
    FunctionSpec::new(
        name,
        128,
        SimDuration::from_secs(60),
        |_ctx, _payload| async { Ok(Payload::new()) },
    )
}

/// Names of the first `n` functions of the paper-scale trace.
fn function_names(n: u32) -> Vec<String> {
    let per_app = TraceConfig::paper_scale().funcs_per_app;
    (0..n)
        .map(|i| function_name(i / per_app, i % per_app))
        .collect()
}

/// A calm, exact cloud with `names` registered as no-op handlers, the
/// first `warm` of them with one warm container each.
fn faas_cloud(seed: u64, names: &[String], warm: usize) -> Cloud {
    let cloud = Cloud::new(CloudProfile::aws_2018().exact(), seed);
    for name in names {
        cloud.faas.register(noop_spec(name.clone()));
    }
    let faas = cloud.faas.clone();
    let warm: Vec<String> = names[..warm].to_vec();
    cloud.sim.block_on(async move {
        for name in &warm {
            faas.invoke(name, Payload::new())
                .await
                .result
                .expect("warm-up invoke");
        }
    });
    cloud
}

struct Runner<'a> {
    tr: &'a Tracer,
    seed: u64,
    rounds: usize,
    smoke: bool,
    report: KernelReport,
}

impl Runner<'_> {
    /// Operations per round: `full`, or a twentieth of it under `--smoke`.
    fn n(&self, full: u64) -> u64 {
        if self.smoke {
            (full / 20).max(1)
        } else {
            full
        }
    }

    /// Run `round` once per round under a span named `span`; it returns
    /// (operations, time measured). Gives the median time per operation
    /// in ns.
    fn ns_per_op(&self, span: &str, mut round: impl FnMut() -> (u64, Duration)) -> f64 {
        let per_op: Vec<f64> = (0..self.rounds)
            .map(|_| {
                let guard = self.tr.span(span);
                let (ops, took) = round();
                guard.ops(ops);
                took.as_nanos() as f64 / ops.max(1) as f64
            })
            .collect();
        median(&per_op)
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.report
            .metrics
            .push(Metric::new(name, value, unit, Kind::Kernel));
    }

    /// The common case: a kernel whose metric is its span's ns per op.
    fn kernel_ns(&mut self, name: &'static str, round: impl FnMut() -> (u64, Duration)) {
        let ns = self.ns_per_op(name, round);
        self.push(name, ns, "ns");
    }

    fn simcore(&mut self) {
        let seed = self.seed;
        let n = self.n(100_000);
        self.kernel_ns("simcore.sleep_ns", || {
            let sim = Sim::new(seed);
            let s = sim.clone();
            let ((), took) = timed(|| {
                sim.block_on(async move {
                    for _ in 0..n {
                        s.sleep(SimDuration::from_micros(1)).await;
                    }
                })
            });
            (n, took)
        });
        let n = self.n(50_000);
        self.kernel_ns("simcore.timeout_cancel_ns", || {
            // The inner sleep always wins: every timeout timer is canceled.
            let sim = Sim::new(seed);
            let s = sim.clone();
            let ((), took) = timed(|| {
                sim.block_on(async move {
                    for _ in 0..n {
                        s.timeout(
                            SimDuration::from_secs(3600),
                            s.sleep(SimDuration::from_nanos(10)),
                        )
                        .await;
                    }
                })
            });
            (n, took)
        });
        let n = self.n(100_000);
        self.kernel_ns("simcore.spawn_ns", || {
            let sim = Sim::new(seed);
            let ((), took) = timed(|| {
                for _ in 0..n {
                    sim.spawn_detached(async {});
                }
                sim.run();
            });
            (n, took)
        });
        let n = self.n(200_000);
        self.kernel_ns("simcore.sem_acquire_ns", || {
            let sim = Sim::new(seed);
            let sem = Semaphore::new(4);
            let ((), took) = timed(|| {
                sim.block_on(async move {
                    for _ in 0..n {
                        drop(sem.acquire(1).await);
                    }
                })
            });
            (n, took)
        });

        let n = self.n(1_000_000);
        self.kernel_ns("simcore.recorder_record_ns", || {
            // First-use interning is part of the hot path's handle type.
            let hist = LazyHist::new("benchmark.latency");
            let recorder = Recorder::new();
            let ((), took) = timed(|| {
                for i in 0..n {
                    hist.record(&recorder, i as f64 * 1e-6);
                }
            });
            black_box(recorder.histogram_names());
            (n, took)
        });
        // A quarter-million-invocation replay leaves about this many
        // samples behind, spread over a few series.
        let samples = self.n(500_000);
        let recorder = Recorder::new();
        for series in 0..8 {
            let id = recorder.hist_id(&format!("benchmark.series.{series}"));
            for i in 0..samples / 8 {
                recorder.record_id(id, ((i * 7919 + series) % 10_007) as f64 * 1e-4);
            }
        }
        self.report.digest_samples = samples / 8 * 8;
        let ns = self.ns_per_op("simcore.recorder_digest_ms", || {
            let (digest, took) = timed(|| recorder.digest());
            black_box(digest);
            (1, took)
        });
        self.push("simcore.recorder_digest_ms", ns / 1e6, "ms");

        // Fan-in of 8: what a replay's function-host NIC sees.
        let n = self.n(80_000);
        let mut prims = Prims::default();
        self.kernel_ns("simcore.link_transfer_ns_lo", || {
            let sim = Sim::new(seed);
            let link = FairShareLink::new(&sim, mbps(574.0));
            for _ in 0..8 {
                let link = link.clone();
                sim.spawn_detached(async move {
                    for _ in 0..n / 8 {
                        link.transfer(4096, Some(mbps(538.0))).await;
                    }
                });
            }
            let ((), took) = timed(|| sim.run());
            prims = prims_of_sim(&sim);
            (n, took)
        });
        // The 8 driver tasks are the kernel's, not the link's.
        prims.spawns = 0.0;
        self.report
            .prims
            .push(("simcore.link_transfer_ns_lo", prims.scaled(1.0 / n as f64)));
        // Every flow in flight at once: what `data_plane` does to a link.
        let flows: Vec<Flow> = (0..self.n(100_000))
            .map(|i| Flow {
                bytes: 1_000_000,
                capped: i % 16 == 0,
            })
            .collect();
        self.kernel_ns("simcore.link_transfer_ns_hi", || {
            let ((drained, left, _), took) = timed(|| link_fan_in(seed, &flows));
            assert_eq!(
                (drained, left),
                (flows.len() as u64, 0),
                "kernel link did not drain"
            );
            (drained, took)
        });
    }

    fn net(&mut self) {
        let seed = self.seed;
        let n = self.n(80_000);
        let mut prims = Prims::default();
        self.kernel_ns("net.nic_transfer_ns", || {
            // Same link, same fan-in, same sizes as link_transfer_ns_lo,
            // reached through a host's NIC.
            let sim = Sim::new(seed);
            let fabric = Fabric::new(&sim, NetProfile::aws_2018().exact(), Recorder::new());
            let host = fabric.add_host(
                0,
                NicConfig {
                    capacity: mbps(574.0),
                    per_flow_cap: Some(mbps(538.0)),
                },
            );
            for _ in 0..8 {
                let host = host.clone();
                sim.spawn_detached(async move {
                    for _ in 0..n / 8 {
                        host.nic_transfer(4096).await;
                    }
                });
            }
            let ((), took) = timed(|| sim.run());
            prims = prims_of_sim(&sim);
            assert_eq!(host.nic_stats().transfers, n / 8 * 8);
            (n, took)
        });
        prims.spawns = 0.0;
        self.report
            .prims
            .push(("net.nic_transfer_ns", prims.scaled(1.0 / n as f64)));
        let n = self.n(20_000);
        self.kernel_ns("net.send_recv_ns", || {
            let sim = Sim::new(seed);
            let fabric = Fabric::new(&sim, NetProfile::aws_2018().exact(), Recorder::new());
            let nic = NicConfig::simple(mbps(10_000.0));
            let (a, b) = (fabric.add_host(0, nic), fabric.add_host(0, nic));
            let tx = fabric.bind(&a, 1).expect("bind");
            let rx = fabric.bind(&b, 1).expect("bind");
            let body = Payload::zeros(1024);
            let ((), took) = timed(|| {
                sim.block_on(async move {
                    for _ in 0..n {
                        tx.send(rx.addr(), body.clone()).await;
                        black_box(rx.recv().await);
                    }
                })
            });
            (n, took)
        });
    }

    fn payload(&mut self) {
        let n = self.n(1_000_000);
        let zero_block = Payload::zeros(256).bytes();
        self.kernel_ns("payload.synthetic_new_ns", || {
            let ((), took) = timed(|| {
                for i in 0..n {
                    black_box(Payload::synthetic(zero_block.clone(), 1 + i % 64));
                }
            });
            (n, took)
        });
        let (document, _) = log_object(
            if self.smoke {
                64 * 1024
            } else {
                16 * 1024 * 1024
            },
            self.seed,
        );
        let bytes = document.len();
        let document = Payload::inline(document);
        let n = self.n(200_000);
        self.kernel_ns("payload.slice_concat_ns", || {
            let ((), took) = timed(|| {
                for i in 0..n as usize {
                    let at = (i * 7919) % (bytes - 8192);
                    black_box(Payload::concat([
                        document.slice(at..at + 4096),
                        document.slice(at + 4096..at + 8192),
                    ]));
                }
            });
            (n, took)
        });
        let ns_per_byte = self.ns_per_op("payload.line_count_gb_per_s", || {
            let (lines, took) = timed(|| document.line_count());
            black_box(lines);
            (bytes as u64, took)
        });
        self.push("payload.line_count_gb_per_s", 1.0 / ns_per_byte, "GB/s");
    }

    fn pricing(&mut self) {
        let n = self.n(1_000_000);
        self.kernel_ns("pricing.charge_id_ns", || {
            let ledger = Ledger::new();
            let id = ledger.item_id(Service::Faas, "requests");
            let ((), took) = timed(|| {
                for _ in 0..n {
                    ledger.charge_id(id, 1.0, 2e-7);
                }
            });
            black_box(ledger.total());
            (n, took)
        });
        let n = self.n(200_000);
        self.kernel_ns("pricing.charge_name_ns", || {
            let ledger = Ledger::new();
            let ((), took) = timed(|| {
                for _ in 0..n {
                    ledger.charge(Service::Faas, "requests", 1.0, 2e-7);
                }
            });
            black_box(ledger.total());
            (n, took)
        });
        let ledger = Ledger::new();
        for service in [
            Service::Faas,
            Service::Blob,
            Service::Kv,
            Service::Queue,
            Service::Gateway,
        ] {
            for item in ["requests", "gb-seconds", "bytes-out", "storage"] {
                ledger.charge(service, item, 1234.5, 0.0123);
            }
        }
        let n = self.n(2_000);
        let ns = self.ns_per_op("pricing.report_us", || {
            let ((), took) = timed(|| {
                for _ in 0..n {
                    black_box(ledger.report());
                }
            });
            (n, took)
        });
        self.push("pricing.report_us", ns / 1e3, "us");
    }

    fn faas(&mut self) {
        let names = Rc::new(function_names(if self.smoke { 600 } else { 12_000 }));
        let seed = self.seed;

        let registered = names.len() as u64;
        self.kernel_ns("faas.register_ns", || {
            let cloud = Cloud::new(CloudProfile::aws_2018().exact(), seed);
            let ((), took) = timed(|| {
                for name in names.iter() {
                    cloud.faas.register(noop_spec(name.clone()));
                }
            });
            (registered, took)
        });

        // Warm hits: sequential invocations over 64 functions that each
        // have one idle container, in a 12 000-function registry.
        let n = self.n(20_000);
        let cloud = faas_cloud(self.seed, &names, 64);
        let mut prims = Prims::default();
        self.kernel_ns("faas.warm_invoke_ns", || {
            let before = prims_of(&cloud);
            let (faas, names) = (cloud.faas.clone(), names.clone());
            let (colds, took) = timed(|| {
                cloud.sim.block_on(async move {
                    let mut colds = 0;
                    for i in 0..n as usize {
                        colds += u64::from(faas.invoke(&names[i % 64], Payload::new()).await.cold);
                    }
                    colds
                })
            });
            assert_eq!(colds, 0, "warm kernel hit cold starts");
            prims = prims_of(&cloud).sub(before);
            (n, took)
        });
        self.report
            .prims
            .push(("faas.warm_invoke_ns", prims.scaled(1.0 / n as f64)));
        drop(cloud);

        // Cold starts: one invocation of each of `n` distinct functions,
        // then reap all the idle containers they leave behind at once.
        let n = self.n(4_000).min(registered);
        let tr = self.tr;
        let mut reap_us = Vec::new();
        self.kernel_ns("faas.cold_invoke_ns", || {
            let cloud = faas_cloud(seed, &names, 0);
            let before = prims_of(&cloud);
            let (faas, names2) = (cloud.faas.clone(), names.clone());
            let (colds, took) = timed(|| {
                cloud.sim.block_on(async move {
                    let mut colds = 0;
                    for name in &names2[..n as usize] {
                        colds += u64::from(faas.invoke(name, Payload::new()).await.cold);
                    }
                    colds
                })
            });
            assert_eq!(colds, n, "cold kernel found warm containers");
            prims = prims_of(&cloud).sub(before);

            assert_eq!(cloud.faas.container_count() as u64, n);
            let idle_for = cloud.faas.profile().container_idle_timeout + SimDuration::from_secs(1);
            cloud.sim.block_on(cloud.sim.sleep(idle_for));
            let guard = tr.span("faas.reap_idle_us");
            let ((), reap) = timed(|| cloud.faas.reap_idle());
            guard.ops(n);
            assert_eq!(
                cloud.faas.container_count(),
                0,
                "reaper left idle containers"
            );
            reap_us.push(reap.as_nanos() as f64 / 1e3);
            (n, took)
        });
        self.report
            .prims
            .push(("faas.cold_invoke_ns", prims.scaled(1.0 / n as f64)));
        self.push("faas.reap_idle_us", median(&reap_us), "us");
    }

    fn gateway(&mut self) {
        const TENANTS: u64 = 1_000;
        let (seed, smoke) = (self.seed, self.smoke);
        let batches = self.n(200);
        self.kernel_ns("gateway.admit_ns", || {
            let cloud = Cloud::new(CloudProfile::aws_2018().exact(), seed);
            let tenants = (0..TENANTS)
                .map(|t| TenantConfig {
                    rate: 50.0,
                    burst: 100.0,
                    max_concurrent: 64,
                    priority: (t % 4) as u8,
                })
                .collect();
            let gw = Gateway::new(
                &cloud.sim,
                &cloud.faas,
                cloud.ledger.clone(),
                cloud.recorder.clone(),
                &cloud.prices,
                GatewayConfig::new(tenants),
            );
            let ((), took) = timed(|| {
                for batch in 0..batches {
                    for tenant in 0..TENANTS {
                        if let Ok(admission) = gw.try_admit(tenant as u32) {
                            admission.complete(true);
                        }
                    }
                    // 8 requests per tenant cost 8 tokens but 40 ms refill
                    // 2, so buckets drain into a steady admit/shed mix.
                    if batch % 8 == 7 {
                        cloud
                            .sim
                            .block_on(cloud.sim.sleep(SimDuration::from_millis(40)));
                    }
                }
            });
            let totals = gw.stats().totals;
            assert!(
                totals.conserved() && totals.offered == batches * TENANTS,
                "{totals:?}"
            );
            assert!(
                totals.admitted > 0 && (smoke || totals.shed() > 0),
                "{totals:?}"
            );
            (batches * TENANTS, took)
        });
    }

    /// `gateway.invoke_overhead_ns`, `resilience.retry_ok_overhead_ns` and
    /// `resilience.retry_failed_attempt_ns`: each wrapper's cost over a
    /// direct invocation of the same function, both arms in one round.
    fn front_door(&mut self) {
        let names = Rc::new(function_names(64));
        let cloud = faas_cloud(self.seed, &names, 64);
        cloud.faas.register(FunctionSpec::new(
            "always-crash",
            128,
            SimDuration::from_secs(60),
            |_ctx, _payload| async {
                Err::<Payload, _>(FnError::Crashed {
                    after: SimDuration::ZERO,
                })
            },
        ));
        let tenant = TenantConfig {
            rate: 1e9,
            burst: 1e9,
            max_concurrent: 1 << 20,
            priority: 3,
        };
        let gw = Gateway::new(
            &cloud.sim,
            &cloud.faas,
            cloud.ledger.clone(),
            cloud.recorder.clone(),
            &cloud.prices,
            GatewayConfig::new(vec![tenant; 32]),
        );
        const ATTEMPTS: u32 = 5;
        let retrying = RetryingInvoker::new(
            &cloud.sim,
            &cloud.faas,
            cloud.recorder.clone(),
            RetryPolicy {
                max_attempts: ATTEMPTS,
                ..RetryPolicy::default()
            },
            "benchmark.retry",
        );
        let n = self.n(20_000);
        let body = Payload::zeros(256);

        // One arm: `n` sequential calls of `call(i)`; (ns per call, prims per call).
        let arm =
            |span: &str, call: &dyn Fn(usize) -> faasim::simcore::LocalBoxFuture<'static, bool>| {
                let guard = self.tr.span(span);
                let before = prims_of(&cloud);
                let calls: Vec<_> = (0..n as usize).map(call).collect();
                let (ok, took) = timed(|| {
                    cloud.sim.block_on(async move {
                        let mut ok = 0u64;
                        for call in calls {
                            ok += u64::from(call.await);
                        }
                        ok
                    })
                });
                guard.ops(n);
                (
                    ok,
                    took.as_nanos() as f64 / n as f64,
                    prims_of(&cloud).sub(before).scaled(1.0 / n as f64),
                )
            };

        let mut gw_over = Vec::new();
        let mut retry_over = Vec::new();
        let mut failed_over = Vec::new();
        let (mut gw_prims, mut retry_prims, mut failed_prims) =
            (Prims::default(), Prims::default(), Prims::default());
        for _ in 0..self.rounds {
            let (faas, names2, body2) = (cloud.faas.clone(), names.clone(), body.clone());
            let (ok, direct_ns, direct_prims) = arm("faas.invoke_direct", &move |i| {
                let (faas, name, body) = (faas.clone(), names2[i % 64].clone(), body2.clone());
                Box::pin(async move { faas.invoke(&name, body).await.result.is_ok() })
            });
            assert_eq!(ok, n);

            let (gw2, names2, body2) = (gw.clone(), names.clone(), body.clone());
            let (ok, gw_ns, prims) = arm("gateway.invoke", &move |i| {
                let (gw, name, body) = (gw2.clone(), names2[i % 64].clone(), body2.clone());
                Box::pin(async move {
                    matches!(gw.invoke((i % 32) as u32, &name, body).await, Ok(out) if out.result.is_ok())
                })
            });
            assert_eq!(ok, n, "gateway kernel shed or failed requests");
            gw_over.push(gw_ns - direct_ns);
            gw_prims = prims.sub(direct_prims);

            let (r2, names2, body2) = (retrying.clone(), names.clone(), body.clone());
            let (ok, retry_ns, prims) = arm("resilience.retry_ok", &move |i| {
                let (r, name, body) = (r2.clone(), names2[i % 64].clone(), body2.clone());
                Box::pin(async move { r.invoke(&name, &body, Deadline::unbounded()).await.is_ok() })
            });
            assert_eq!(ok, n);
            retry_over.push(retry_ns - direct_ns);
            retry_prims = prims.sub(direct_prims);

            // Every attempt fails: ATTEMPTS platform invocations and
            // ATTEMPTS - 1 backoff sleeps per call. The direct arm makes
            // the same number of platform invocations without the wrapper.
            let calls = n / u64::from(ATTEMPTS);
            let (faas, body2) = (cloud.faas.clone(), body.clone());
            let (ok, crash_ns, crash_prims) = arm("faas.invoke_direct_failing", &move |_| {
                let (faas, body) = (faas.clone(), body2.clone());
                Box::pin(async move { faas.invoke("always-crash", body).await.result.is_ok() })
            });
            assert_eq!(ok, 0);
            let (r2, body2) = (retrying.clone(), body.clone());
            let (ok, failing_ns, prims) = arm("resilience.retry_failing", &move |i| {
                let (r, body) = (r2.clone(), body2.clone());
                Box::pin(async move {
                    // Only every ATTEMPTS-th slot calls, so both arms make
                    // `n` platform invocations.
                    i as u64 >= calls
                        || r.invoke("always-crash", &body, Deadline::unbounded())
                            .await
                            .is_ok()
                })
            });
            assert_eq!(ok, n - calls, "a failing call succeeded");
            let attempts = (calls * u64::from(ATTEMPTS)) as f64;
            failed_over.push((failing_ns - crash_ns * attempts / n as f64) * n as f64 / attempts);
            failed_prims = prims
                .sub(crash_prims.scaled(attempts / n as f64))
                .scaled(n as f64 / attempts);
        }
        self.push("gateway.invoke_overhead_ns", median(&gw_over), "ns");
        self.push("resilience.retry_ok_overhead_ns", median(&retry_over), "ns");
        self.push(
            "resilience.retry_failed_attempt_ns",
            median(&failed_over),
            "ns",
        );
        self.report
            .prims
            .push(("gateway.invoke_overhead_ns", gw_prims));
        self.report
            .prims
            .push(("resilience.retry_ok_overhead_ns", retry_prims));
        self.report
            .prims
            .push(("resilience.retry_failed_attempt_ns", failed_prims));
    }

    fn resilience(&mut self) {
        let seed = self.seed;
        let n = self.n(500_000);
        self.kernel_ns("resilience.breaker_call_ns", || {
            let sim = Sim::new(seed);
            let breaker =
                CircuitBreaker::new(&sim, Recorder::new(), "benchmark", BreakerConfig::default());
            let (ok, took) = timed(|| {
                sim.block_on(async move {
                    let mut ok = 0u64;
                    for i in 0..n {
                        ok += u64::from(
                            breaker
                                .call(|_: &()| true, async move { Ok::<u64, ()>(i) })
                                .await
                                .is_ok(),
                        );
                    }
                    ok
                })
            });
            assert_eq!(ok, n);
            (n, took)
        });
    }

    fn trace(&mut self) {
        let seed = self.seed;
        let mut cfg = TraceConfig::paper_scale();
        cfg.max_events = self.n(100_000);
        let ns = self.ns_per_op("trace.gen_ns_per_event", || {
            let (events, took) = timed(|| TraceGenerator::new(cfg.clone(), seed).count() as u64);
            (events, took)
        });
        self.push("trace.gen_ns_per_event", ns, "ns");
        let n = self.n(1_000_000);
        let mut sketch = QuantileSketch::new(0.01);
        self.kernel_ns("trace.sketch_insert_ns", || {
            sketch = QuantileSketch::new(0.01);
            let ((), took) = timed(|| {
                for i in 0..n {
                    sketch.insert(0.05 + ((i * 7919) % 10_007) as f64 * 3e-3);
                }
            });
            (n, took)
        });
        let n = self.n(20_000);
        let ns = self.ns_per_op("trace.sketch_quantile_us", || {
            let ((), took) = timed(|| {
                for i in 0..n {
                    black_box(sketch.quantile([0.5, 0.95, 0.99, 0.999][(i % 4) as usize]));
                }
            });
            (n, took)
        });
        self.push("trace.sketch_quantile_us", ns / 1e3, "us");
    }

    fn chaos(&mut self) {
        let seeds: Vec<u64> = (0..if self.smoke { 2 } else { 16 })
            .map(|k| self.seed.wrapping_add(k))
            .collect();
        let scenario = CrdtSync::chaotic();
        let ns = self.ns_per_op("chaos.seed_ms_serial", || {
            let (report, took) = timed(|| sweep(&scenario, &seeds[..seeds.len() / 2]));
            assert!(report.passed(), "{report}");
            (report.results.len() as u64, took)
        });
        self.push("chaos.seed_ms_serial", ns / 1e6, "ms");

        let mut plan = FaultPlan::hostile();
        plan.storms = (1..=4).map(SimDuration::from_mins).collect();
        let n = self.n(2_000);
        let ns = self.ns_per_op("chaos.plan_apply_us", || {
            let cloud = Cloud::new(CloudProfile::aws_2018(), self.seed);
            let ((), took) = timed(|| {
                for _ in 0..n {
                    plan.apply(&cloud);
                }
            });
            (n, took)
        });
        self.push("chaos.plan_apply_us", ns / 1e3, "us");

        // Informational: with one core this is contention noise, not a
        // speed-up, and nothing is gated on it.
        let (one, all) = (ParallelSweep::new(1), ParallelSweep::auto());
        let speedups: Vec<f64> = (0..self.rounds)
            .map(|_| {
                let guard = self.tr.span("chaos.parallel_speedup");
                let (serial, serial_took) = timed(|| one.sweep(&scenario, &seeds));
                let (parallel, parallel_took) = timed(|| all.sweep(&scenario, &seeds));
                guard.ops(2 * seeds.len() as u64);
                assert_eq!(serial, parallel, "parallel sweep diverged from serial");
                serial_took.as_secs_f64() / parallel_took.as_secs_f64()
            })
            .collect();
        self.push("chaos.parallel_speedup", median(&speedups), "x");
    }

    fn services(&mut self) {
        let seed = self.seed;
        let client_cloud = || {
            let cloud = Cloud::new(CloudProfile::aws_2018().exact(), seed);
            let client = cloud.client_host();
            (cloud, client)
        };

        // The streaming scan over real bytes, then over the symbolic 30 GB.
        let object_bytes = if self.smoke {
            64 * 1024
        } else {
            4 * 1024 * 1024
        };
        let mut lines = 0;
        let (cloud, client) = client_cloud();
        cloud.blob.create_bucket("logs");
        for i in 0..2u64 {
            let (object, n) = log_object(object_bytes, seed.wrapping_add(i));
            lines += n;
            let (blob, client) = (cloud.blob.clone(), client.clone());
            cloud.sim.block_on(async move {
                blob.put(&client, "logs", &format!("obj-{i}"), Bytes::from(object))
                    .await
                    .expect("put");
            });
        }
        let sizes = Sizes::for_run(self.smoke);
        let synth_reps = sizes.synth_object_bytes / SYNTH_LINE.len() as u64;
        for i in 0..sizes.synth_objects {
            let (blob, client) = (cloud.blob.clone(), client.clone());
            cloud.sim.block_on(async move {
                let body = Payload::synthetic(SYNTH_LINE, synth_reps);
                blob.put(&client, "logs", &format!("part-{i:04}"), body)
                    .await
                    .expect("put");
            });
        }
        let scan = |prefix: &str| {
            let (query, client) = (cloud.query.clone(), client.clone());
            let spec = QuerySpec::new("logs", prefix, Aggregate::CountAll);
            let (out, took) = timed(|| {
                cloud
                    .sim
                    .block_on(async move { query.run(&client, spec).await })
            });
            (out.expect("query").rows[0].1 as u64, took)
        };
        let ns_per_line = self.ns_per_op("query.scan_inline_lines_per_s", || {
            let (counted, took) = scan("obj-");
            assert_eq!(counted, lines);
            (counted, took)
        });
        self.push("query.scan_inline_lines_per_s", 1e9 / ns_per_line, "1/s");
        let ns = self.ns_per_op("query.scan_synth_ms", || {
            let (counted, took) = scan("part-");
            assert_eq!(counted, sizes.synth_objects as u64 * synth_reps);
            (1, took)
        });
        self.push("query.scan_synth_ms", ns / 1e6, "ms");
        drop(cloud);

        let body = Bytes::from(vec![7u8; 1024]);
        let n = self.n(5_000);
        self.kernel_ns("blob.put_get_ns", || {
            let (cloud, client) = client_cloud();
            cloud.blob.create_bucket("b");
            let (blob, body) = (cloud.blob.clone(), body.clone());
            let ((), took) = timed(|| {
                cloud.sim.block_on(async move {
                    for i in 0..n {
                        let key = format!("k{}", i % 64);
                        blob.put(&client, "b", &key, body.clone())
                            .await
                            .expect("put");
                        black_box(blob.get(&client, "b", &key).await.expect("get"));
                    }
                })
            });
            (n, took)
        });
        let n = self.n(10_000);
        self.kernel_ns("kv.put_get_ns", || {
            let (cloud, client) = client_cloud();
            cloud.kv.create_table("t");
            let (kv, body) = (cloud.kv.clone(), body.clone());
            let ((), took) = timed(|| {
                cloud.sim.block_on(async move {
                    for i in 0..n {
                        let key = format!("k{}", i % 64);
                        kv.put(&client, "t", &key, body.clone()).await.expect("put");
                        black_box(
                            kv.get(&client, "t", &key, Consistency::Strong)
                                .await
                                .expect("get"),
                        );
                    }
                })
            });
            (n, took)
        });
        let n = self.n(5_000);
        self.kernel_ns("queue.send_recv_ns", || {
            let (cloud, client) = client_cloud();
            cloud.queue.create_queue("q", QueueConfig::default());
            let (queue, body) = (cloud.queue.clone(), body.clone());
            let ((), took) = timed(|| {
                cloud.sim.block_on(async move {
                    for _ in 0..n {
                        queue.send(&client, "q", body.clone()).await.expect("send");
                        let mut got = queue
                            .receive(&client, "q", 1, SimDuration::from_secs(1))
                            .await
                            .expect("receive");
                        let message = got.pop().expect("the message just sent");
                        queue
                            .delete(&client, message.receipt)
                            .await
                            .expect("delete");
                    }
                })
            });
            (n, took)
        });
        let n = self.n(20_000);
        self.kernel_ns("compute.vm_run_ns", || {
            let (cloud, _) = client_cloud();
            let vm = cloud.ec2.provision_ready("m4.large", 0).expect("provision");
            let ((), took) = timed(|| {
                cloud.sim.block_on(async move {
                    for _ in 0..n {
                        vm.cpu_work(SimDuration::from_millis(1)).await;
                    }
                })
            });
            (n, took)
        });
    }

    fn ml_protocols_agents(&mut self) {
        let seed = self.seed;
        let reviews = ReviewGenerator::new(ReviewGenConfig::default(), seed)
            .generate_batch(if self.smoke { 64 } else { 512 });
        let bow = BagOfWords::fit_paper(reviews.iter().map(|r| r.text.as_str()));
        let n = reviews.len() as u64;
        self.kernel_ns("ml.featurize_doc_ns", || {
            let ((), took) = timed(|| {
                for review in &reviews {
                    black_box(bow.transform(&review.text));
                }
            });
            (n, took)
        });
        let xs: Vec<_> = reviews[..16]
            .iter()
            .map(|r| bow.transform(&r.text))
            .collect();
        let ys: Vec<f32> = reviews[..16].iter().map(|r| r.rating).collect();
        let mut trainer = Trainer::paper_setup(seed);
        let steps = self.n(100).max(2);
        let ns = self.ns_per_op("ml.mlp_step_us", || {
            let ((), took) = timed(|| {
                for _ in 0..steps {
                    black_box(trainer.train_batch(&xs, &ys));
                }
            });
            (steps, took)
        });
        self.push("ml.mlp_step_us", ns / 1e3, "us");

        let (mut a, mut b) = (GCounter::new(), GCounter::new());
        for replica in 0..64 {
            a.increment(replica, replica + 1);
            b.increment(replica, 64 - replica);
        }
        let n = self.n(200_000);
        self.kernel_ns("protocols.crdt_merge_ns", || {
            let ((), took) = timed(|| {
                for i in 0..n {
                    b.increment(i % 64, 1);
                    a.merge(&b);
                }
            });
            black_box(a.value());
            (n, took)
        });

        let n = self.n(5_000);
        self.kernel_ns("agents.msg_ns", || {
            let cloud = Cloud::new(CloudProfile::aws_2018().exact(), seed);
            let runtime = AgentRuntime::new(&cloud.sim, &cloud.fabric, cloud.recorder.clone());
            let nic = NicConfig::simple(mbps(10_000.0));
            let server = runtime
                .spawn(&cloud.fabric.add_host(0, nic), "server")
                .expect("spawn");
            let client = runtime
                .spawn(&cloud.fabric.add_host(0, nic), "client")
                .expect("spawn");
            cloud.sim.spawn_detached(async move {
                loop {
                    let request = server.recv().await;
                    server.reply(&request, Payload::zeros(64)).await;
                }
            });
            let ((), took) = timed(|| {
                cloud.sim.block_on(async move {
                    for _ in 0..n {
                        black_box(
                            client
                                .request("server", Payload::zeros(64))
                                .await
                                .expect("reply"),
                        );
                    }
                })
            });
            (n, took)
        });
    }

    fn core(&mut self) {
        let n = self.n(200);
        let ns = self.ns_per_op("core.cloud_new_us", || {
            let ((), took) = timed(|| {
                for i in 0..n {
                    black_box(Cloud::new(
                        CloudProfile::aws_2018(),
                        self.seed.wrapping_add(i),
                    ));
                }
            });
            (n, took)
        });
        self.push("core.cloud_new_us", ns / 1e3, "us");

        // The experiments, timed where `paper_suite` runs them: a few
        // passes of that workload under this tracer, one span each.
        let sizes = Sizes::for_run(self.smoke);
        let first = self.tr.spans().len();
        let mut suite = workloads::setup("paper_suite", self.seed, &sizes).expect("paper_suite");
        for _ in 0..self.rounds.min(3) {
            let pass = suite.iterate(self.tr, false);
            assert!(pass.violations.is_empty(), "{:?}", pass.violations);
        }
        let spans = self.tr.spans();
        for name in EXPERIMENT_SPANS {
            let ms: Vec<f64> = spans[first..]
                .iter()
                .filter(|s| s.name == format!("core.exp.{name}"))
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
                .collect();
            self.push(&format!("core.exp.{name}_ms"), median(&ms), "ms");
        }
    }
}

/// The `core.exp.<name>` spans of a `paper_suite` pass.
pub const EXPERIMENT_SPANS: [&str; 10] = [
    "table1",
    "cold_starts",
    "bandwidth",
    "data_shipping",
    "training",
    "prediction",
    "election",
    "agents_cmp",
    "resilient",
    "sweep",
];

/// Run every kernel. Needs an enabled tracer: the experiment timings are
/// read back from its spans.
pub fn run(tr: &Tracer, seed: u64, smoke: bool) -> KernelReport {
    assert!(tr.enabled(), "kernels record their rounds as spans");
    let mut runner = Runner {
        tr,
        seed,
        rounds: if smoke { 3 } else { 7 },
        smoke,
        report: KernelReport::default(),
    };
    runner.simcore();
    runner.net();
    runner.payload();
    runner.pricing();
    runner.faas();
    runner.gateway();
    runner.front_door();
    runner.resilience();
    runner.trace();
    runner.chaos();
    runner.services();
    runner.ml_protocols_agents();
    runner.core();
    runner.report
}
