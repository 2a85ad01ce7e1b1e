//! [`Retrying`]: any [`Service`] handle wrapped in a [`RetryPolicy`],
//! so experiments can opt into the retry discipline that real serverless
//! applications are forced to adopt.
//!
//! There is one wrapper, one trait and one call. [`Service`] says which
//! of a service's errors a retry can outlast, which counter counts the
//! attempts, and whether an attempt may be abandoned mid-flight;
//! [`Retrying::call`] runs one of the service's own operations through
//! [`RetryPolicy`]'s loop (in `retry.rs`). Logic errors such as a missing
//! table surface immediately as [`RetryError::Fatal`]. Every call takes a
//! [`Deadline`], so a retry loop cannot outlive the request it serves;
//! [`Deadline::unbounded`] leaves the policy alone in charge.

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
}

/// A service as the retry loop sees it.
pub trait Service {
    /// What a failed attempt reports.
    type Error;
    /// Whether an attempt may be abandoned mid-flight. A storage call is
    /// raced against the per-call timeout and the remaining budget; an
    /// invocation never is (dropping its future would strand a busy
    /// container), so its budget is only checked between attempts.
    const RACE: bool;
    /// The recorder counter bumped once per attempt.
    fn attempts(&self) -> &'static str;
    /// The earliest instant a retry after `err` can succeed
    /// ([`SimTime::ZERO`] when the error does not say), or `None` when
    /// retrying cannot help.
    fn retry_at(err: &Self::Error) -> Option<SimTime>;
}

impl Service for KvStore {
    type Error = KvError;
    const RACE: bool = true;
    fn attempts(&self) -> &'static str {
        "chaos.kv.attempts"
    }
    fn retry_at(err: &KvError) -> Option<SimTime> {
        any_time(err.is_transient())
    }
}

impl Service for BlobStore {
    type Error = BlobError;
    const RACE: bool = true;
    fn attempts(&self) -> &'static str {
        "chaos.blob.attempts"
    }
    fn retry_at(err: &BlobError) -> Option<SimTime> {
        any_time(err.is_transient())
    }
}

/// No queue error is transient, so only a per-call timeout is ever
/// retried. Note what is *not* promised: a send that times out at the
/// caller may still have enqueued (that is how duplicate deliveries
/// happen in the first place). The queue contract stays at-least-once;
/// exactly-once observable effects come from pairing this client with an
/// [`crate::IdempotencyStore`].
impl Service for QueueService {
    type Error = QueueError;
    const RACE: bool = true;
    fn attempts(&self) -> &'static str {
        "resil.queue.attempts"
    }
    fn retry_at(_: &QueueError) -> Option<SimTime> {
        None
    }
}

/// Crashed and timed-out invocations are transient: the platform-level
/// at-least-once retry semantics of an async invoke, made explicit on the
/// synchronous path.
impl Service for FaasPlatform {
    type Error = FnError;
    const RACE: bool = false;
    fn attempts(&self) -> &'static str {
        "resil.faas.attempts"
    }
    fn retry_at(err: &FnError) -> Option<SimTime> {
        any_time(err.is_transient())
    }
}

impl<S: Service> Retrying<S> {
    /// Run one operation of the service through the retry loop inside
    /// `deadline`: a transient failure is retried, any other error is
    /// final. `op` makes one attempt each time it is called, so it must be
    /// safe to repeat (a PUT is). An invocation may execute its handler
    /// more than once; pair it with [`crate::IdempotencyStore`] for
    /// exactly-once observable effects.
    ///
    /// Hands back `RetryPolicy::drive`'s own future rather than awaiting
    /// it in an `async fn`: a layer that only forwards is still polled on
    /// every wake of every call, ~20 ns per invocation for each such layer.
    pub fn call<'a, T: 'a, Fut>(
        &'a self,
        deadline: Deadline,
        mut op: impl FnMut(&'a S) -> Fut + 'a,
    ) -> impl Future<Output = Result<T, RetryError<S::Error>>> + 'a
    where
        Fut: Future<Output = Result<T, S::Error>> + 'a,
        S::Error: 'a,
    {
        self.policy
            .drive(&self.sim, &self.rng, deadline, S::RACE, S::retry_at, move || {
                self.attempts
                    .get_or_init(|| LazyCounter::new(self.inner.attempts()))
                    .incr(&self.recorder);
                op(&self.inner)
            })
    }
}

/// An invocation's outcome as a retry layer sees it: the function's own
/// failure becomes the error.
pub fn settled<E: From<FnError>>(out: InvokeOutcome) -> Result<InvokeOutcome, E> {
    match &out.result {
        Ok(_) => Ok(out),
        Err(e) => Err(e.clone().into()),
    }
}

/// A [`FaasPlatform`] client that retries crashed and timed-out
/// invocations.
pub type RetryingInvoker = Retrying<FaasPlatform>;

impl RetryingInvoker {
    /// Invoke `func` through [`Retrying::call`] until it succeeds. The
    /// outcomes of failed attempts show only in the ledger and counters.
    pub fn invoke<'a>(
        &'a self,
        func: &'a str,
        payload: &'a Payload,
        deadline: Deadline,
    ) -> impl Future<Output = Result<InvokeOutcome, RetryError<FnError>>> + 'a {
        self.call(deadline, move |faas| async move {
            settled(faas.invoke(func, payload.clone()).await)
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
    use faasim_simcore::{LatencyModel, SimDuration};

    #[test]
    fn retrying_kv_survives_heavy_throttling() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 11);
        cloud.kv.set_faults(KvFaults { throttle_prob: 0.5 });
        cloud.kv.create_table("t");
        let client = Retrying::new(
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

    /// The attempt counter exists from the first attempt on, not from
    /// construction and not from a call whose deadline had already passed.
    #[test]
    fn the_attempt_counter_resolves_on_first_attempt() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 11);
        cloud.kv.create_table("t");
        let client = Retrying::new(
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
            let spent = Deadline::at(sim.now());
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
        let client = Retrying::new(
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
        let client = Retrying::new(
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
            let deadline = Deadline::at(sim.now() + SimDuration::from_secs(3));
            client
                .call(deadline, |kv| kv.get(&host, "t", "k", Consistency::Strong))
                .await
        });
        assert!(
            matches!(got, Err(RetryError::DeadlineExceeded { .. })),
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
        let rq = Retrying::new(
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

    /// `RACE` alone decides whether a slow attempt is abandoned: under a
    /// 10 ms per-call timeout a 200 ms KV write times out every attempt,
    /// while a 200 ms invocation runs to completion on its first attempt
    /// and hands its container back warm.
    #[test]
    fn race_decides_whether_a_slow_attempt_is_abandoned() {
        let mut profile = CloudProfile::aws_2018().exact();
        profile.kv.op_latency = LatencyModel::Constant(SimDuration::from_millis(200));
        let cloud = Cloud::new(profile, 16);
        cloud.kv.create_table("t");
        cloud.faas.register(FunctionSpec::new(
            "work",
            512,
            SimDuration::from_secs(30),
            |ctx, _payload| async move {
                ctx.cpu(SimDuration::from_millis(200)).await;
                Ok(Payload::inline("ok"))
            },
        ));
        let policy = RetryPolicy {
            max_attempts: 3,
            call_timeout: Some(SimDuration::from_millis(10)),
            ..RetryPolicy::default()
        };
        let (sim, recorder) = (cloud.sim.clone(), cloud.recorder.clone());
        let kv = Retrying::new(&sim, &cloud.kv, recorder.clone(), policy.clone(), "resil.kv.test");
        let invoker = RetryingInvoker::new(&sim, &cloud.faas, recorder, policy, "resil.faas.test");
        let host = cloud.client_host();
        let (stored, invoked, again) = cloud.sim.block_on(async move {
            let by = Deadline::at(sim.now() + SimDuration::from_secs(60));
            let stored = kv
                .call(by, |kv| kv.put(&host, "t", "k", Bytes::from_static(b"v")))
                .await;
            let invoked = invoker.invoke("work", &Payload::inline("x"), by).await;
            let again = invoker.inner().invoke("work", Payload::inline("x")).await;
            (stored, invoked, again)
        });
        assert_eq!(stored.unwrap_err(), RetryError::TimedOut { attempts: 3 });
        assert_eq!(cloud.recorder.counter("chaos.kv.attempts"), 3);
        assert!(invoked.is_ok(), "an invocation is never abandoned mid-flight");
        assert_eq!(cloud.recorder.counter("resil.faas.attempts"), 1);
        assert!(again.result.is_ok() && !again.cold, "its container came back warm");
    }
}
