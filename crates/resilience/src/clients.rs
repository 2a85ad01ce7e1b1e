//! [`Retrying`]: any service handle wrapped in a [`RetryPolicy`], so
//! experiments can opt into the retry discipline that real serverless
//! applications are forced to adopt.
//!
//! There is one wrapper and one loop ([`RetryPolicy`]'s, in
//! `retry.rs`); what differs per service is only which errors are
//! transient ([`Storage`], [`Invoke`]) and whether an attempt may be
//! abandoned mid-flight. A storage operation is the service's own
//! method, made through [`Retrying::call`]; an invocation goes through
//! [`Retrying::invoke`]. Only *transient* errors (KV throttling, blob
//! 503s, crashed or timed-out invocations, per-call timeouts) are
//! retried; logic errors such as a missing table surface immediately as
//! [`RetryError::Fatal`]. Both take a [`Deadline`], so a retry loop
//! cannot outlive the request it serves; [`Deadline::unbounded`] leaves
//! the policy alone in charge.

use std::cell::{OnceCell, RefCell};
use std::future::Future;
use std::rc::Rc;

use faasim_blob::{BlobError, BlobStore};
use faasim_faas::{FaasPlatform, FnError, InvokeOutcome};
use faasim_kv::{KvError, KvStore};
use faasim_payload::Payload;
use faasim_queue::{QueueError, QueueService};
use faasim_simcore::{LazyCounter, Recorder, Sim, SimRng, SimTime};

use crate::deadline::Deadline;
use crate::retry::{any_time, RetryError, RetryPolicy};

/// A service handle `S` whose calls retry transient failures under one
/// policy. Cheap to clone; clones share the jitter RNG stream.
#[derive(Clone)]
pub struct Retrying<S> {
    inner: S,
    sim: Sim,
    policy: RetryPolicy,
    rng: Rc<RefCell<SimRng>>,
    pub(crate) recorder: Recorder,
    /// The per-attempt counter. Every operation of one `Retrying<S>`
    /// counts under one name, learnt at the first attempt.
    attempts: OnceCell<LazyCounter>,
}

impl<S> Retrying<S> {
    /// Wrap `inner`. `label` names the jitter RNG stream, so two clients
    /// with different labels draw independent jitter.
    pub fn new(sim: &Sim, inner: &S, recorder: Recorder, policy: RetryPolicy, label: &str) -> Self
    where
        S: Clone,
    {
        Retrying {
            inner: inner.clone(),
            sim: sim.clone(),
            policy,
            rng: Rc::new(RefCell::new(sim.rng(label))),
            recorder,
            attempts: OnceCell::new(),
        }
    }

    /// The wrapped service, for operations that should not retry.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Run `op` through the retry loop inside `deadline`, counting each
    /// attempt under `counter`. `race` and `retry_at` are
    /// [`RetryPolicy::drive`]'s.
    ///
    /// Hands back the loop's own future rather than awaiting it in an
    /// `async fn`: a layer that only forwards is still polled on every
    /// wake of every call, ~20 ns per invocation for each such layer.
    fn retry<'a, T: 'a, E: 'a, Fut>(
        &'a self,
        counter: &'static str,
        deadline: Deadline,
        race: bool,
        retry_at: impl Fn(&E) -> Option<SimTime> + 'a,
        mut op: impl FnMut() -> Fut + 'a,
    ) -> impl Future<Output = Result<T, RetryError<E>>> + 'a
    where
        Fut: Future<Output = Result<T, E>> + 'a,
    {
        self.policy
            .drive(&self.sim, &self.rng, deadline, race, retry_at, move || {
                self.attempts
                    .get_or_init(|| LazyCounter::new(counter))
                    .incr(&self.recorder);
                op()
            })
    }
}

/// A storage service as the retry loop sees it: which of its errors a
/// retry can outlast, and the recorder counter its attempts count under.
pub trait Storage {
    /// What a failed operation reports.
    type Error;
    /// The recorder counter bumped once per attempt.
    const ATTEMPTS: &'static str;
    /// Whether a retry of the same operation may succeed.
    fn is_transient(err: &Self::Error) -> bool;
}

impl Storage for KvStore {
    type Error = KvError;
    const ATTEMPTS: &'static str = "chaos.kv.attempts";
    fn is_transient(err: &KvError) -> bool {
        err.is_transient()
    }
}

impl Storage for BlobStore {
    type Error = BlobError;
    const ATTEMPTS: &'static str = "chaos.blob.attempts";
    fn is_transient(err: &BlobError) -> bool {
        err.is_transient()
    }
}

/// No queue error is transient, so only a per-call timeout is ever
/// retried. Note what is *not* promised: a send that times out at the
/// caller may still have enqueued (that is how duplicate deliveries
/// happen in the first place). The queue contract stays at-least-once;
/// exactly-once observable effects come from pairing this client with an
/// [`crate::IdempotencyStore`].
impl Storage for QueueService {
    type Error = QueueError;
    const ATTEMPTS: &'static str = "resil.queue.attempts";
    fn is_transient(_: &QueueError) -> bool {
        false
    }
}

/// A [`KvStore`] client that retries throttled requests.
pub type RetryingKv = Retrying<KvStore>;
/// A [`BlobStore`] client that retries 503s.
pub type RetryingBlob = Retrying<BlobStore>;
/// A [`QueueService`] client whose operations fit a deadline budget.
pub type RetryingQueue = Retrying<QueueService>;

impl<S: Storage> Retrying<S> {
    /// Run one operation of the service through the retry loop inside
    /// `deadline`: a transient failure is retried, any other error is
    /// final. `op` makes one attempt each time it is called, so it must be
    /// safe to repeat (a PUT is).
    pub fn call<'a, T: 'a, Fut>(
        &'a self,
        deadline: Deadline,
        mut op: impl FnMut(&'a S) -> Fut + 'a,
    ) -> impl Future<Output = Result<T, RetryError<S::Error>>> + 'a
    where
        Fut: Future<Output = Result<T, S::Error>> + 'a,
        S::Error: 'a,
    {
        let transient = |e: &S::Error| any_time(S::is_transient(e));
        self.retry(S::ATTEMPTS, deadline, true, transient, move || op(&self.inner))
    }
}

/// Something a function can be invoked through — the platform itself, a
/// gateway in front of it, or a caller's own composition of the two —
/// as [`Retrying::invoke`] sees it.
pub trait Invoke {
    /// What names one call: a function, or a tenant and a function.
    /// (Implementations spell the parameter's type `Self::Call<'_>`.)
    type Call<'a>: Copy;
    /// What a refused or failed attempt reports.
    type Error: From<FnError>;

    /// The recorder counter bumped once per attempt.
    fn attempts_counter(&self) -> &'static str;

    /// Make one attempt and see it through. `Ok` is a call whose
    /// function succeeded; an admitted call whose function failed is an
    /// `Err` too (see [`settled`]).
    fn attempt(
        &self,
        call: Self::Call<'_>,
        payload: Payload,
    ) -> impl Future<Output = Result<InvokeOutcome, Self::Error>>;

    /// The earliest instant a retry after `err` can succeed
    /// ([`SimTime::ZERO`] when the error does not say), or `None` when
    /// retrying cannot help.
    fn retry_at(err: &Self::Error) -> Option<SimTime>;
}

/// An invocation's outcome as a retry layer sees it: the function's own
/// failure becomes the error.
pub fn settled<E: From<FnError>>(out: InvokeOutcome) -> Result<InvokeOutcome, E> {
    match &out.result {
        Ok(_) => Ok(out),
        Err(e) => Err(e.clone().into()),
    }
}

impl Invoke for FaasPlatform {
    type Call<'a> = &'a str;
    type Error = FnError;

    fn attempts_counter(&self) -> &'static str {
        "resil.faas.attempts"
    }

    async fn attempt(
        &self,
        func: Self::Call<'_>,
        payload: Payload,
    ) -> Result<InvokeOutcome, FnError> {
        settled(self.invoke(func, payload).await)
    }

    fn retry_at(err: &FnError) -> Option<SimTime> {
        any_time(err.is_transient())
    }
}

/// A [`FaasPlatform`] client that retries crashed and timed-out
/// invocations — the platform-level at-least-once retry semantics of an
/// async invoke, made explicit on the synchronous path.
pub type RetryingInvoker = Retrying<FaasPlatform>;

impl<S: Invoke> Retrying<S> {
    /// Invoke until the function succeeds, the policy is exhausted, or
    /// the deadline budget runs out. Returns the successful outcome; the
    /// outcomes of failed attempts are visible only in the ledger and
    /// counters, as in a real platform.
    ///
    /// Each attempt runs to completion (an in-flight invocation is never
    /// canceled from outside — the function's own timeout bounds it), so
    /// a retried invocation may execute the handler more than once. Pair
    /// with [`crate::IdempotencyStore`] for exactly-once observable
    /// effects.
    pub fn invoke<'a>(
        &'a self,
        call: S::Call<'a>,
        payload: &'a Payload,
        deadline: Deadline,
    ) -> impl Future<Output = Result<InvokeOutcome, RetryError<S::Error>>> + 'a {
        let counter = self.inner.attempts_counter();
        self.retry(counter, deadline, false, S::retry_at, move || {
            self.inner.attempt(call, payload.clone())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use faasim::{Cloud, CloudProfile};
    use faasim_faas::{FaasFaults, FunctionSpec};
    use faasim_kv::{Consistency, KvFaults};
    use faasim_queue::{QueueConfig, QueueFaults};
    use faasim_simcore::SimDuration;

    #[test]
    fn retrying_kv_survives_heavy_throttling() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 11);
        cloud.kv.set_faults(KvFaults { throttle_prob: 0.5 });
        cloud.kv.create_table("t");
        let client = RetryingKv::new(
            &cloud.sim,
            &cloud.kv,
            cloud.recorder.clone(),
            RetryPolicy {
                max_attempts: 10,
                ..RetryPolicy::default()
            },
            "chaos.test",
        );
        let host = cloud.client_host();
        let ok = cloud.sim.block_on(async move {
            for i in 0..50u8 {
                let key = format!("k{i}");
                let open = Deadline::unbounded();
                client
                    .call(open, |kv| kv.put(&host, "t", &key, Bytes::from(vec![i])))
                    .await?;
                client
                    .call(open, |kv| kv.get(&host, "t", &key, Consistency::Strong))
                    .await?;
            }
            Ok::<(), RetryError<KvError>>(())
        });
        ok.expect("retries should absorb 50% throttling");
        assert!(cloud.recorder.counter("kv.throttled") > 0, "faults fired");
        assert!(
            cloud.recorder.counter("chaos.kv.attempts") > 100,
            "extra attempts were made"
        );
    }

    /// The attempts counter exists from the first attempt on, not from
    /// construction and not from a call whose deadline had already passed.
    #[test]
    fn attempts_counter_resolves_on_first_attempt() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 11);
        cloud.kv.create_table("t");
        let client = RetryingKv::new(
            &cloud.sim,
            &cloud.kv,
            cloud.recorder.clone(),
            RetryPolicy::default(),
            "chaos.test",
        );
        let host = cloud.client_host();
        assert!(cloud.recorder.counter_names().is_empty());
        let sim = cloud.sim.clone();
        cloud.sim.block_on(async move {
            let spent = Deadline::within(&sim, SimDuration::ZERO);
            let late = client
                .call(spent, |kv| kv.put(&host, "t", "k", Bytes::from_static(b"v")))
                .await;
            assert!(matches!(
                late,
                Err(RetryError::DeadlineExceeded { attempts: 0 })
            ));
            assert!(client.recorder.counter_names().is_empty());
            // A clone made before the first attempt counts under the same name.
            let twin = client.clone();
            let open = Deadline::unbounded();
            client
                .call(open, |kv| kv.put(&host, "t", "k", Bytes::from_static(b"v")))
                .await
                .unwrap();
            twin.call(open, |kv| kv.get(&host, "t", "k", Consistency::Strong))
                .await
                .unwrap();
        });
        assert_eq!(
            cloud.recorder.counter_names(),
            ["chaos.kv.attempts", "kv.reads", "kv.writes"]
        );
        assert_eq!(cloud.recorder.counter("chaos.kv.attempts"), 2);
    }

    #[test]
    fn fatal_errors_are_not_retried() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 11);
        let client = RetryingKv::new(
            &cloud.sim,
            &cloud.kv,
            cloud.recorder.clone(),
            RetryPolicy::default(),
            "chaos.test",
        );
        let host = cloud.client_host();
        let got = cloud.sim.block_on(async move {
            client
                .call(Deadline::unbounded(), |kv| {
                    kv.get(&host, "missing", "k", Consistency::Strong)
                })
                .await
        });
        assert!(matches!(got, Err(RetryError::Fatal(KvError::NoSuchTable(_)))));
        assert_eq!(cloud.recorder.counter("chaos.kv.attempts"), 1);
    }

    #[test]
    fn kv_deadline_budget_bounds_throttle_storms() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 12);
        cloud.kv.set_faults(KvFaults { throttle_prob: 1.0 });
        cloud.kv.create_table("t");
        let client = RetryingKv::new(
            &cloud.sim,
            &cloud.kv,
            cloud.recorder.clone(),
            RetryPolicy {
                max_attempts: 1_000,
                ..RetryPolicy::default()
            },
            "chaos.test",
        );
        let host = cloud.client_host();
        let sim = cloud.sim.clone();
        let got = cloud.sim.block_on(async move {
            let deadline = Deadline::within(&sim, SimDuration::from_secs(3));
            client
                .call(deadline, |kv| kv.get(&host, "t", "k", Consistency::Strong))
                .await
        });
        assert!(
            matches!(got, Err(e) if e.is_deadline()),
            "100% throttling must end on the budget, not 1000 attempts"
        );
    }

    #[test]
    fn duplicate_sends_surface_as_redeliveries() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 14);
        cloud.queue.set_faults(QueueFaults {
            duplicate_prob: 1.0,
            ..QueueFaults::default()
        });
        cloud
            .queue
            .create_queue("q", QueueConfig::default());
        let rq = RetryingQueue::new(
            &cloud.sim,
            &cloud.queue,
            cloud.recorder.clone(),
            RetryPolicy::default(),
            "resil.q.test",
        );
        let host = cloud.client_host();
        cloud.sim.block_on(async move {
            rq.call(Deadline::unbounded(), |q| q.send(&host, "q", Payload::inline("m")))
                .await
                .expect("send");
            // Both copies are there: at-least-once in action.
            assert_eq!(rq.inner().queue_len("q"), 2);
        });
    }

    #[test]
    fn invoker_retries_through_kills() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 15);
        cloud.faas.set_faults(FaasFaults { kill_prob: 0.5 });
        cloud.faas.register(FunctionSpec::new(
            "work",
            512,
            SimDuration::from_secs(30),
            |ctx, _payload| async move {
                ctx.cpu(SimDuration::from_millis(200)).await;
                Ok(Payload::inline("ok"))
            },
        ));
        let invoker = RetryingInvoker::new(
            &cloud.sim,
            &cloud.faas,
            cloud.recorder.clone(),
            RetryPolicy {
                max_attempts: 20,
                ..RetryPolicy::default()
            },
            "resil.faas.test",
        );
        let host_payload = Payload::inline("x");
        let ok = cloud.sim.block_on(async move {
            for _ in 0..10 {
                invoker
                    .invoke("work", &host_payload, Deadline::unbounded())
                    .await?;
            }
            Ok::<(), RetryError<FnError>>(())
        });
        ok.expect("retries should absorb 50% kill probability");
        assert!(
            cloud.recorder.counter("resil.faas.attempts") > 10,
            "some invocations were killed and retried"
        );
    }
}
