//! What a workload body is written against, so that each body exists
//! once: the [`Clients`] its service calls go through, the [`Backend`]
//! that builds its clouds, and the [`Run`] that collects what it captured
//! and what failed.
//!
//! This crate's `run(&Params, seed)` entry points use [`plain`]: bare
//! service handles on an undisturbed cloud, and a failure is a panic.
//! `faasim-chaos` runs the same bodies at reduced `Params` under a fault
//! plan with retrying clients, and reports the failures as violations
//! (EXPERIMENTS.md "Resilience model").

use std::fmt::Display;
use std::future::Future;

use faasim_blob::BlobStore;
use faasim_faas::{FaasPlatform, InvokeOutcome};
use faasim_kv::{Consistency, Item, KvStore};
use faasim_net::{Addr, Host, Message, Socket};
use faasim_payload::Payload;
use faasim_queue::QueueService;
use faasim_simcore::{Histogram, Sim, SimDuration, SimTime};

use crate::cloud::{Cloud, CloudProfile};
use crate::experiments::probe::ExperimentProbe;

/// The `by` of an operation that has no budget.
pub const UNBOUNDED: SimTime = SimTime::MAX;

/// The instant `budget` from now: the `by` of a trial's operations.
pub fn within(sim: &Sim, budget: SimDuration) -> SimTime {
    sim.now().saturating_add(budget)
}

/// The service operations the workloads perform. Every operation takes
/// the instant `by` which its trial must be over: a retrying client fits
/// its attempts inside it, a bare one ignores it. A failure comes back as
/// text, for the run's failure list.
pub trait Clients: Clone + 'static {
    /// Write an object.
    fn blob_put(
        &self,
        caller: &Host,
        bucket: &str,
        key: &str,
        data: Payload,
        by: SimTime,
    ) -> impl Future<Output = Result<(), String>>;

    /// Read an object.
    fn blob_get(
        &self,
        caller: &Host,
        bucket: &str,
        key: &str,
        by: SimTime,
    ) -> impl Future<Output = Result<Payload, String>>;

    /// Write an item; returns its new version.
    fn kv_put(
        &self,
        caller: &Host,
        table: &str,
        key: &str,
        value: Payload,
        by: SimTime,
    ) -> impl Future<Output = Result<u64, String>>;

    /// Strongly consistent read of an item.
    fn kv_get(
        &self,
        caller: &Host,
        table: &str,
        key: &str,
        by: SimTime,
    ) -> impl Future<Output = Result<Item, String>>;

    /// Send `bodies` to a queue as one request.
    fn queue_send(
        &self,
        caller: &Host,
        queue: &str,
        bodies: Vec<Payload>,
        by: SimTime,
    ) -> impl Future<Output = Result<(), String>>;

    /// Invoke a function and see it succeed.
    fn invoke(
        &self,
        function: &str,
        payload: &Payload,
        by: SimTime,
    ) -> impl Future<Output = Result<InvokeOutcome, String>>;

    /// One request/reply exchange from `socket`.
    fn request(
        &self,
        socket: &Socket,
        to: Addr,
        payload: Payload,
        by: SimTime,
    ) -> impl Future<Output = Result<Message, String>>;
}

/// A service error as the text a failure list carries.
pub fn text<T, E: Display>(outcome: Result<T, E>) -> Result<T, String> {
    outcome.map_err(|e| e.to_string())
}

/// A cloud's own service handles: one attempt per operation, no budget.
#[derive(Clone)]
pub struct Bare {
    blob: BlobStore,
    kv: KvStore,
    queue: QueueService,
    faas: FaasPlatform,
}

impl Bare {
    /// The handles of `cloud`.
    pub fn new(cloud: &Cloud) -> Bare {
        Bare {
            blob: cloud.blob.clone(),
            kv: cloud.kv.clone(),
            queue: cloud.queue.clone(),
            faas: cloud.faas.clone(),
        }
    }
}

impl Clients for Bare {
    async fn blob_put(
        &self,
        caller: &Host,
        bucket: &str,
        key: &str,
        data: Payload,
        _: SimTime,
    ) -> Result<(), String> {
        text(self.blob.put(caller, bucket, key, data).await)
    }

    async fn blob_get(
        &self,
        caller: &Host,
        bucket: &str,
        key: &str,
        _: SimTime,
    ) -> Result<Payload, String> {
        text(self.blob.get(caller, bucket, key).await)
    }

    async fn kv_put(
        &self,
        caller: &Host,
        table: &str,
        key: &str,
        value: Payload,
        _: SimTime,
    ) -> Result<u64, String> {
        text(self.kv.put(caller, table, key, value).await)
    }

    async fn kv_get(
        &self,
        caller: &Host,
        table: &str,
        key: &str,
        _: SimTime,
    ) -> Result<Item, String> {
        text(self.kv.get(caller, table, key, Consistency::Strong).await)
    }

    async fn queue_send(
        &self,
        caller: &Host,
        queue: &str,
        bodies: Vec<Payload>,
        _: SimTime,
    ) -> Result<(), String> {
        text(self.queue.send_batch(caller, queue, bodies).await.map(drop))
    }

    async fn invoke(
        &self,
        function: &str,
        payload: &Payload,
        _: SimTime,
    ) -> Result<InvokeOutcome, String> {
        let out = self.faas.invoke(function, payload.clone()).await;
        match &out.result {
            Ok(_) => Ok(out),
            Err(e) => Err(e.to_string()),
        }
    }

    async fn request(
        &self,
        socket: &Socket,
        to: Addr,
        payload: Payload,
        _: SimTime,
    ) -> Result<Message, String> {
        text(socket.request(to, payload).await)
    }
}

/// Where a body runs: who builds its clouds and clients, and what is
/// checked of a cloud once its workload is over.
pub trait Backend {
    /// The client set bodies get.
    type Clients: Clients;

    /// A cloud of `profile` at `seed`, and the clients for it.
    fn open(&self, profile: CloudProfile, seed: u64) -> (Cloud, Self::Clients);

    /// What is wrong with a cloud whose workload is over.
    fn audit(&self, cloud: &Cloud) -> Vec<String>;
}

/// An undisturbed cloud with [`Bare`] clients, and nothing to audit.
pub struct Plain;

impl Backend for Plain {
    type Clients = Bare;

    fn open(&self, profile: CloudProfile, seed: u64) -> (Cloud, Bare) {
        let cloud = Cloud::new(profile, seed);
        let clients = Bare::new(&cloud);
        (cloud, clients)
    }

    fn audit(&self, _: &Cloud) -> Vec<String> {
        Vec::new()
    }
}

/// One run of a body on a [`Backend`]: the probe of every cloud it
/// closed, in order, and everything that failed, in the order found.
pub struct Run<B> {
    backend: B,
    /// One capture per closed cloud.
    pub probe: ExperimentProbe,
    /// Failed trials and audits, each prefixed with its scope.
    pub failures: Vec<String>,
}

impl<B: Backend> Run<B> {
    /// A run with nothing opened yet.
    pub fn new(backend: B) -> Run<B> {
        Run {
            backend,
            probe: ExperimentProbe::new(),
            failures: Vec::new(),
        }
    }

    /// A cloud of `profile` at `seed`, and the clients for it.
    pub fn open(&self, profile: CloudProfile, seed: u64) -> (Cloud, B::Clients) {
        self.backend.open(profile, seed)
    }

    /// Record each failure as `"{scope}: {failure}"`.
    pub fn fail(&mut self, scope: &str, failures: impl IntoIterator<Item = String>) {
        self.failures
            .extend(failures.into_iter().map(|f| format!("{scope}: {f}")));
    }

    /// Record `failure()` unless `ok`.
    pub fn check(&mut self, scope: &str, ok: bool, failure: impl FnOnce() -> String) {
        if !ok {
            self.fail(scope, [failure()]);
        }
    }

    /// Close a cloud whose workload is over: audit it, then capture it.
    pub fn close(&mut self, scope: &str, cloud: &Cloud) {
        let audit = self.backend.audit(cloud);
        self.fail(scope, audit);
        self.probe.capture(cloud);
    }
}

/// Run `body` on [`Plain`]. A failure is a panic: nothing disturbs this
/// cloud, so a trial that fails is a bug.
pub fn plain<R>(body: impl FnOnce(&mut Run<Plain>) -> R) -> R {
    let mut run = Run::new(Plain);
    let result = body(&mut run);
    assert!(run.failures.is_empty(), "failed: {:#?}", run.failures);
    result
}

/// The samples and the failures of one loop of timed trials.
#[derive(Default)]
pub struct Trials {
    /// One sample per trial that completed.
    pub hist: Histogram,
    /// One entry per trial that did not.
    pub failures: Vec<String>,
}

impl Trials {
    /// Trial number `trial` took `outcome`, or failed with it.
    pub fn record(&mut self, trial: usize, outcome: Result<SimDuration, String>) {
        match outcome {
            Ok(took) => self.hist.record_duration(took),
            Err(e) => self.failures.push(format!("trial {trial}: {e}")),
        }
    }
}

/// Invoke `function` inside `budget` and see it echo `payload`.
pub async fn echo<C: Clients>(
    clients: &C,
    sim: &Sim,
    function: &str,
    payload: &Payload,
    budget: SimDuration,
) -> Result<InvokeOutcome, String> {
    let out = clients
        .invoke(function, payload, within(sim, budget))
        .await?;
    match &out.result {
        Ok(echoed) if echoed.len() != payload.len() => {
            Err(format!("echoed {} bytes", echoed.len()))
        }
        _ => Ok(out),
    }
}

/// The driver of a chained workload: invoke `function` with
/// `request(left)` until `left()` reaches zero. The execution cap and a
/// platform kill both mean "invoke again"; any other error ends the chain,
/// and so do eight executions in a row that leave `left()` where it was.
/// Returns the executions made.
pub async fn chain(
    faas: FaasPlatform,
    function: &'static str,
    left: impl Fn() -> u64,
    request: impl Fn(u64) -> Payload,
) -> Result<u64, String> {
    let (mut executions, mut stalled) = (0, 0);
    loop {
        let before = left();
        if before == 0 {
            return Ok(executions);
        }
        let out = faas.invoke(function, request(before)).await;
        executions += 1;
        match out.result {
            Ok(_) => {}
            Err(e) if e.is_transient() => {}
            Err(e) => return Err(format!("{function}: {e}")),
        }
        stalled = if left() < before { 0 } else { stalled + 1 };
        if stalled == 8 {
            return Err(format!(
                "{function}: no progress in 8 executions, {before} left"
            ));
        }
    }
}
