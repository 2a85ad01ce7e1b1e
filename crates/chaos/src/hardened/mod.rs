//! The paper's eight experiments as chaos scenarios. The workload bodies
//! are `faasim::experiments`' own; what is here is what makes a run of
//! one a chaos run: the [`Faulty`] backend (a [`FaultPlan`] on every
//! cloud, [`Retried`] clients, [`check_cloud`] when a cloud closes), the
//! reduced-scale parameters and each workload's invariant
//! (`workloads.rs`), and the one handler that is not the paper's
//! (`prediction.rs`). A run never panics on a platform failure: what
//! went wrong comes back as [`RunReport::violations`]. EXPERIMENTS.md
//! "Resilience model" has the table of scales and invariants.

mod prediction;
mod workloads;

use std::future::Future;

use faasim::experiments::clients::{text, Backend, Clients, Invoker, Opened, Run};
use faasim::{Cloud, CloudProfile};
use faasim_blob::{BlobError, BlobStore};
use faasim_faas::InvokeOutcome;
use faasim_kv::{KvError, KvStore};
use faasim_net::{Addr, Message, Socket};
use faasim_payload::Payload;
use faasim_queue::{QueueError, QueueService};
use faasim_resilience::{Deadline, RetryPolicy, Retrying, RetryingInvoker};
use faasim_simcore::{Sim, SimDuration, SimTime};

use crate::faults::FaultPlan;
use crate::invariants::check_cloud;
use crate::sweep::{RunReport, Scenario};

/// The backend of a chaos run: every cloud is built with the plan
/// applied, its clients retry, and closing it drains the simulation (so
/// the conservation counters settle) and runs [`check_cloud`].
pub struct Faulty<'p>(pub &'p FaultPlan);

impl<'p> Backend for Faulty<'p> {
    type Clients = Retried;
    type Invoker = RetriedInvoker;

    fn open(&self, profile: CloudProfile, seed: u64) -> Opened<Faulty<'p>> {
        let cloud = self.0.build(profile, seed);
        let clients = Retried {
            sim: cloud.sim.clone(),
            blob: retrying(&cloud, &cloud.blob, "resil.blob"),
            kv: retrying(&cloud, &cloud.kv, "resil.kv"),
            queue: retrying(&cloud, &cloud.queue, "resil.queue"),
        };
        let invoker = RetriedInvoker(retrying(&cloud, &cloud.faas, "resil.invoker"));
        (cloud, clients, invoker)
    }

    fn audit(&self, cloud: &Cloud) -> Vec<String> {
        cloud.sim.run();
        check_cloud(cloud)
    }
}

/// A retrying client for one of `cloud`'s services under the chaos runs'
/// one policy: 25 attempts, enough to ride out any fault streak the
/// hostile plan can produce. `label` names the jitter stream.
fn retrying<S: Clone>(cloud: &Cloud, service: &S, label: &str) -> Retrying<S> {
    let policy = RetryPolicy {
        max_attempts: 25,
        ..RetryPolicy::default()
    };
    Retrying::new(&cloud.sim, service, cloud.recorder.clone(), policy, label)
}

/// A cloud's storage behind [`Retrying`]: every operation retries what
/// is transient inside the `by` it is given.
#[derive(Clone)]
pub struct Retried {
    sim: Sim,
    blob: Retrying<BlobStore>,
    kv: Retrying<KvStore>,
    queue: Retrying<QueueService>,
}

/// A cloud's platform behind [`Retrying`]: a killed or timed-out
/// invocation is made again, inside `by`.
#[derive(Clone)]
pub struct RetriedInvoker(RetryingInvoker);

impl Invoker for RetriedInvoker {
    async fn call(
        &self,
        function: &str,
        payload: &Payload,
        by: SimTime,
    ) -> Result<InvokeOutcome, String> {
        text(self.0.invoke(function, payload, Deadline::at(by)).await)
    }
}

impl Clients for Retried {
    async fn blob<'a, T: 'a, Fut>(
        &'a self,
        by: SimTime,
        op: impl FnMut(&'a BlobStore) -> Fut + 'a,
    ) -> Result<T, String>
    where
        Fut: Future<Output = Result<T, BlobError>> + 'a,
    {
        text(self.blob.call(Deadline::at(by), op).await)
    }

    async fn kv<'a, T: 'a, Fut>(
        &'a self,
        by: SimTime,
        op: impl FnMut(&'a KvStore) -> Fut + 'a,
    ) -> Result<T, String>
    where
        Fut: Future<Output = Result<T, KvError>> + 'a,
    {
        text(self.kv.call(Deadline::at(by), op).await)
    }

    async fn queue<'a, T: 'a, Fut>(
        &'a self,
        by: SimTime,
        op: impl FnMut(&'a QueueService) -> Fut + 'a,
    ) -> Result<T, String>
    where
        Fut: Future<Output = Result<T, QueueError>> + 'a,
    {
        text(self.queue.call(Deadline::at(by), op).await)
    }

    /// Packet loss makes a request hang forever, so each attempt is raced
    /// against a timeout and repeated until `by`.
    async fn request(
        &self,
        socket: &Socket,
        to: Addr,
        payload: Payload,
        by: SimTime,
    ) -> Result<Message, String> {
        let (deadline, patience) = (Deadline::at(by), SimDuration::from_millis(500));
        while !deadline.is_expired(&self.sim) {
            let attempt = socket.request(to, payload.clone());
            if let Some(Ok(reply)) = self.sim.timeout(patience, attempt).await {
                return Ok(reply);
            }
        }
        Err("no reply within deadline".to_owned())
    }
}

/// One of the eight workloads under a fixed fault plan. Pure function of
/// the seed, so the sweep harness can replay it and demand byte-identical
/// digests.
pub struct ExperimentScenario {
    name: &'static str,
    plan: FaultPlan,
    workload: fn(&mut Run<Faulty<'_>>, u64),
}

impl Scenario for ExperimentScenario {
    fn name(&self) -> &'static str {
        self.name
    }

    /// One digest and one bill per cloud the workload closed, in order,
    /// and everything that failed as the violations.
    fn run(&self, seed: u64) -> RunReport {
        let mut run = Run::new(Faulty(&self.plan));
        (self.workload)(&mut run, seed);
        RunReport {
            digest: run.probe.digests.join("\n"),
            bill: run.probe.bills.join("\n"),
            violations: run.failures,
        }
    }
}

/// All eight workloads under one fault plan: [`FaultPlan::hostile`]
/// when `hostile`, [`FaultPlan::calm`] otherwise.
pub fn experiment_scenarios(hostile: bool) -> Vec<ExperimentScenario> {
    let plan = if hostile {
        FaultPlan::hostile()
    } else {
        FaultPlan::calm()
    };
    let scenario = |calm, hostile_name, workload| ExperimentScenario {
        name: if hostile { hostile_name } else { calm },
        plan: plan.clone(),
        workload,
    };
    vec![
        scenario("table1/calm", "table1/hostile", workloads::table1),
        scenario("cold_starts/calm", "cold_starts/hostile", workloads::cold_starts),
        scenario("bandwidth/calm", "bandwidth/hostile", workloads::bandwidth),
        scenario("data_shipping/calm", "data_shipping/hostile", workloads::data_shipping),
        scenario("training/calm", "training/hostile", workloads::training),
        scenario("prediction/calm", "prediction/hostile", prediction::run),
        scenario("election/calm", "election/hostile", workloads::election),
        scenario("agents_cmp/calm", "agents_cmp/hostile", workloads::agents_cmp),
    ]
}
