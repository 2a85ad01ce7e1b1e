//! Hardened Table 1: the six communication paths through retrying
//! clients, platform-level invoke retries and deadline budgets, at
//! reduced scale. Invariant: every trial completes, or fails by its
//! declared deadline.

use bytes::Bytes;
use faasim_faas::{FnError, FunctionSpec};
use faasim_kv::Consistency;
use faasim_net::Host;
use faasim_payload::Payload;
use faasim_resilience::{Deadline, RetryingBlob, RetryingKv};
use faasim_simcore::SimDuration;

use super::{echo, retrying, Harness};
use crate::faults::FaultPlan;
use crate::sweep::RunReport;

const PAYLOAD_BYTES: usize = 1_024;
const INVOC_TRIALS: usize = 12;
const IO_TRIALS: usize = 8;
const RTT_TRIALS: usize = 20;

#[derive(Copy, Clone)]
enum Medium {
    Blob,
    Kv,
}

/// The retrying storage clients every I/O column shares.
#[derive(Clone)]
struct Stores {
    blob: RetryingBlob,
    kv: RetryingKv,
}

impl Stores {
    /// Write `body` under `key` by `put_by`, then read it back by
    /// `get_by`. The error names the half that failed.
    async fn write_read(
        &self,
        medium: Medium,
        host: &Host,
        key: &str,
        body: &Payload,
        (put_by, get_by): (Deadline, Deadline),
    ) -> Result<(), (&'static str, String)> {
        match medium {
            Medium::Blob => {
                let put = self.blob.put(host, "bench", key, body.clone(), put_by);
                put.await.map_err(|e| ("put", e.to_string()))?;
                let get = self.blob.get(host, "bench", key, get_by);
                get.await.map_err(|e| ("get", e.to_string()))?;
            }
            Medium::Kv => {
                let body = Bytes::from(body.to_vec());
                let put = self.kv.put(host, "bench", key, body, put_by);
                put.await.map_err(|e| ("put", e.to_string()))?;
                let get = self.kv.get(host, "bench", key, Consistency::Strong, get_by);
                get.await.map_err(|e| ("get", e.to_string()))?;
            }
        }
        Ok(())
    }
}

pub(super) fn run(plan: &FaultPlan, seed: u64) -> RunReport {
    let mut h = Harness::new(plan);
    let cloud = h.cloud(seed);
    cloud.blob.create_bucket("bench");
    cloud.kv.create_table("bench");
    let payload = Payload::zeros(PAYLOAD_BYTES);

    // --- Column 1: no-op invocations, platform-level retries ------------
    {
        cloud.faas.register(FunctionSpec::new(
            "noop",
            128,
            SimDuration::from_secs(60),
            |_ctx, payload| async move { Ok(payload) },
        ));
        let invoker = retrying(&cloud, &cloud.faas, "resil.t1.invoker");
        let sim = cloud.sim.clone();
        let p = payload.clone();
        let failures = cloud.sim.block_on(async move {
            let mut failures = Vec::new();
            for i in 0..INVOC_TRIALS {
                if let Err(e) = echo(&invoker, &sim, "noop", &p).await {
                    failures.push(format!("trial {i}: {e}"));
                }
            }
            failures
        });
        h.failures("table1/invoc", failures);
    }

    // --- Columns 2 & 3: Lambda I/O with retrying storage clients --------
    let stores = Stores {
        kv: retrying(&cloud, &cloud.kv, "resil.t1.kv"),
        blob: retrying(&cloud, &cloud.blob, "resil.t1.blob"),
    };
    for (medium, fn_name) in [(Medium::Blob, "rio-blob"), (Medium::Kv, "rio-kv")] {
        let stores = stores.clone();
        cloud.faas.register(FunctionSpec::new(
            fn_name,
            1_024,
            SimDuration::from_secs(60),
            move |ctx, payload| {
                let stores = stores.clone();
                async move {
                    // One write+read pair per invocation; storage-tier
                    // transients are absorbed inside the handler so a
                    // brownout surfaces as latency, not failure.
                    let key = format!("rio-{}", ctx.container_id());
                    let unbounded = (Deadline::unbounded(), Deadline::unbounded());
                    match stores
                        .write_read(medium, ctx.host(), &key, &payload, unbounded)
                        .await
                    {
                        Ok(()) => Ok(Payload::inline("ok")),
                        Err((half, e)) => Err(FnError::Handler(format!("{half}: {e}"))),
                    }
                }
            },
        ));
        let invoker = retrying(&cloud, &cloud.faas, "resil.t1.io_invoker");
        let sim = cloud.sim.clone();
        let p = payload.clone();
        let failures = cloud.sim.block_on(async move {
            let mut failures = Vec::new();
            for i in 0..IO_TRIALS {
                let deadline = Deadline::within(&sim, SimDuration::from_secs(120));
                if let Err(e) = invoker.invoke(fn_name, &p, deadline).await {
                    failures.push(format!("trial {i}: {e}"));
                }
            }
            failures
        });
        h.failures(&format!("table1/{fn_name}"), failures);
    }

    // --- Columns 4 & 5: EC2 I/O through the same retrying clients -------
    for (medium, label) in [(Medium::Blob, "ec2-blob"), (Medium::Kv, "ec2-kv")] {
        let vm = cloud.ec2.provision_ready("m5.large", 0).expect("m5.large");
        let host = vm.host().clone();
        let stores = stores.clone();
        let sim = cloud.sim.clone();
        let p = payload.clone();
        let failures = cloud.sim.block_on(async move {
            let mut failures = Vec::new();
            for i in 0..IO_TRIALS {
                let deadline = Deadline::within(&sim, SimDuration::from_secs(60));
                // The blob write alone runs outside the trial's budget.
                let put_by = match medium {
                    Medium::Blob => Deadline::unbounded(),
                    Medium::Kv => deadline,
                };
                let done = stores.write_read(medium, &host, label, &p, (put_by, deadline));
                if let Err((_, e)) = done.await {
                    failures.push(format!("trial {i}: {e}"));
                }
            }
            failures
        });
        h.failures(&format!("table1/{label}"), failures);
        vm.terminate();
    }

    // --- Column 6: socket RTTs with per-request timeouts -----------------
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
        let sim = cloud.sim.clone();
        let p = payload.clone();
        let failures = cloud.sim.block_on(async move {
            let mut failures = Vec::new();
            for i in 0..RTT_TRIALS {
                // Packet loss makes a request hang forever, so each
                // attempt is raced against a timeout and retried inside
                // the trial's deadline budget.
                let deadline = Deadline::within(&sim, SimDuration::from_secs(30));
                let mut ok = false;
                while !deadline.is_expired(&sim) {
                    let attempt = sa.request_timed(to, p.clone());
                    match sim.timeout(SimDuration::from_millis(500), attempt).await {
                        Some(Ok(_)) => {
                            ok = true;
                            break;
                        }
                        Some(Err(_)) | None => continue,
                    }
                }
                if !ok {
                    failures.push(format!("rtt trial {i}: no reply within deadline"));
                }
            }
            failures
        });
        h.failures("table1/rtt", failures);
    }

    // Quiesce in-flight deliveries so conservation counters settle.
    cloud.sim.run();
    h.close("table1", &cloud);
    h.finish()
}
