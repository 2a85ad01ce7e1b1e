//! What a workload body is written against, so that each body exists
//! once: the [`Clients`] and the [`Invoker`] its service calls go through,
//! the [`Backend`] that builds its clouds, and the [`Run`] that collects
//! what it captured and what failed.
//!
//! This crate's `run(&Params, seed)` entry points use [`plain`]: bare
//! service handles on an undisturbed cloud, and a failure is a panic.
//! `faasim-chaos` runs the same bodies at reduced `Params` under a fault
//! plan with retrying clients, and reports the failures as violations
//! (EXPERIMENTS.md "Resilience model").

use std::fmt::Display;
use std::future::Future;

use faasim_blob::{BlobError, BlobStore};
use faasim_faas::{FaasPlatform, InvokeOutcome};
use faasim_kv::{KvError, KvStore};
use faasim_net::{Addr, Message, Socket};
use faasim_payload::Payload;
use faasim_queue::{QueueError, QueueService};
use faasim_simcore::{Histogram, Sim, SimDuration, SimTime};

use crate::cloud::{Cloud, CloudProfile};
use crate::experiments::probe::ExperimentProbe;

/// The `by` of an operation that has no budget.
pub const UNBOUNDED: SimTime = SimTime::MAX;

/// How a workload's calls to the cloud's storage and sockets are made,
/// from its drivers and from inside its function bodies. A storage
/// operation is the service's own method, passed as `op` (which makes one
/// attempt each time it is called). Every call takes the instant `by`
/// which its trial must be over: a retrying client fits its attempts
/// inside it, a bare one ignores it. A failure comes back as text, for
/// the run's failure list.
pub trait Clients: Clone + 'static {
    /// One operation of the object store.
    fn blob<'a, T: 'a, Fut>(
        &'a self,
        by: SimTime,
        op: impl FnMut(&'a BlobStore) -> Fut + 'a,
    ) -> impl Future<Output = Result<T, String>> + 'a
    where
        Fut: Future<Output = Result<T, BlobError>> + 'a;

    /// One operation of the table service.
    fn kv<'a, T: 'a, Fut>(
        &'a self,
        by: SimTime,
        op: impl FnMut(&'a KvStore) -> Fut + 'a,
    ) -> impl Future<Output = Result<T, String>> + 'a
    where
        Fut: Future<Output = Result<T, KvError>> + 'a;

    /// One operation of the queue service.
    fn queue<'a, T: 'a, Fut>(
        &'a self,
        by: SimTime,
        op: impl FnMut(&'a QueueService) -> Fut + 'a,
    ) -> impl Future<Output = Result<T, String>> + 'a
    where
        Fut: Future<Output = Result<T, QueueError>> + 'a;

    /// One request/reply exchange from `socket`.
    fn request(
        &self,
        socket: &Socket,
        to: Addr,
        payload: Payload,
        by: SimTime,
    ) -> impl Future<Output = Result<Message, String>>;
}

/// How a workload's drivers invoke its functions. Apart from [`Clients`]
/// because it holds the platform: a function body that held it too would
/// keep the platform that holds the body alive for good.
pub trait Invoker: Clone + 'static {
    /// Invoke a function by `by` and see it succeed.
    fn call(
        &self,
        function: &str,
        payload: &Payload,
        by: SimTime,
    ) -> impl Future<Output = Result<InvokeOutcome, String>>;
}

/// One attempt, no budget.
impl Invoker for FaasPlatform {
    async fn call(
        &self,
        function: &str,
        payload: &Payload,
        _: SimTime,
    ) -> Result<InvokeOutcome, String> {
        let out = self.invoke(function, payload.clone()).await;
        match &out.result {
            Ok(_) => Ok(out),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// A service error as the text a failure list carries.
pub fn text<T, E: Display>(outcome: Result<T, E>) -> Result<T, String> {
    outcome.map_err(|e| e.to_string())
}

/// A cloud's own storage handles: one attempt per operation, no budget.
#[derive(Clone)]
pub struct Bare {
    blob: BlobStore,
    kv: KvStore,
    queue: QueueService,
}

impl Clients for Bare {
    async fn blob<'a, T: 'a, Fut>(
        &'a self,
        _: SimTime,
        mut op: impl FnMut(&'a BlobStore) -> Fut + 'a,
    ) -> Result<T, String>
    where
        Fut: Future<Output = Result<T, BlobError>> + 'a,
    {
        text(op(&self.blob).await)
    }

    async fn kv<'a, T: 'a, Fut>(
        &'a self,
        _: SimTime,
        mut op: impl FnMut(&'a KvStore) -> Fut + 'a,
    ) -> Result<T, String>
    where
        Fut: Future<Output = Result<T, KvError>> + 'a,
    {
        text(op(&self.kv).await)
    }

    async fn queue<'a, T: 'a, Fut>(
        &'a self,
        _: SimTime,
        mut op: impl FnMut(&'a QueueService) -> Fut + 'a,
    ) -> Result<T, String>
    where
        Fut: Future<Output = Result<T, QueueError>> + 'a,
    {
        text(op(&self.queue).await)
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
    /// The invoker their drivers get.
    type Invoker: Invoker;

    /// A cloud of `profile` at `seed`, the clients and the invoker for it.
    fn open(&self, profile: CloudProfile, seed: u64) -> Opened<Self>;

    /// What is wrong with a cloud whose workload is over.
    fn audit(&self, cloud: &Cloud) -> Vec<String>;
}

/// What [`Backend::open`] returns.
pub type Opened<B> = (Cloud, <B as Backend>::Clients, <B as Backend>::Invoker);

/// An undisturbed cloud, its own handles, and nothing to audit.
pub struct Plain;

impl Backend for Plain {
    type Clients = Bare;
    type Invoker = FaasPlatform;

    fn open(&self, profile: CloudProfile, seed: u64) -> Opened<Plain> {
        let cloud = Cloud::new(profile, seed);
        let clients = Bare {
            blob: cloud.blob.clone(),
            kv: cloud.kv.clone(),
            queue: cloud.queue.clone(),
        };
        let invoker = cloud.faas.clone();
        (cloud, clients, invoker)
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

    /// A cloud of `profile` at `seed`, the clients and the invoker for it.
    pub fn open(&self, profile: CloudProfile, seed: u64) -> Opened<B> {
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
pub async fn echo(
    invoker: &impl Invoker,
    sim: &Sim,
    function: &str,
    payload: &Payload,
    budget: SimDuration,
) -> Result<InvokeOutcome, String> {
    let out = invoker.call(function, payload, sim.now() + budget).await?;
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

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use bytes::Bytes;
    use faasim_faas::FunctionSpec;

    use super::*;

    /// A function body may hold the clients it is handed: they do not
    /// hold the platform, so platform and body still go when the cloud
    /// does (a run that leaked its clouds would grow by one per run).
    #[test]
    fn clients_held_by_a_function_body_do_not_keep_the_platform_alive() {
        let held = Rc::new(());
        {
            let (cloud, clients, invoker) = Plain.open(CloudProfile::aws_2018().exact(), 1);
            let witness = held.clone();
            cloud.faas.register(FunctionSpec::new(
                "f",
                128,
                SimDuration::from_secs(1),
                move |_, _| {
                    let _held = (clients.clone(), witness.clone());
                    async move { Ok(Bytes::new()) }
                },
            ));
            let invoked = async move { invoker.call("f", &Payload::default(), UNBOUNDED).await };
            cloud.sim.block_on(invoked).expect("f succeeds");
            assert_eq!(Rc::strong_count(&held), 2);
        }
        assert_eq!(Rc::strong_count(&held), 1, "the function body outlived its cloud");
    }
}
