//! Exactly-once *observable* effects on top of at-least-once delivery.
//!
//! The paper's §2 is blunt: "functions must be written to be
//! idempotent" — the platform may run an invocation twice (queue
//! redelivery, duplicate send, platform retry after a crash) and the
//! application must make the duplicates unobservable. The standard
//! production answer is an idempotency key: each logical request
//! carries a unique key, and its effect is committed under that key
//! with a conditional write. The first committer wins; every other
//! execution reads the committed effect back instead of re-applying it.
//!
//! [`IdempotencyStore`] is that pattern over the simulated KV store.
//! The KV record *is* the observable effect, and `put_if(NotExists)` is
//! atomic in the store, so even an execution killed between computing
//! and committing leaves at most one committed record — the retry
//! either commits first or loses the conditional write and dedups.

use std::future::Future;

use faasim_kv::{Condition, Consistency, KvError, KvStore};
use faasim_net::Host;
use faasim_payload::Payload;

use crate::clients::Retrying;
use crate::deadline::Deadline;
use crate::retry::RetryError;

/// The committed outcome of [`IdempotencyStore::execute`].
#[derive(Clone, Debug)]
pub struct Effect {
    /// The effect value committed under the idempotency key.
    pub value: Payload,
    /// True when this execution deduplicated against a prior commit
    /// (the work either wasn't run, or ran and lost the commit race).
    pub deduped: bool,
}

/// A KV-backed effect memo keyed by idempotency keys, a client of the
/// `Retrying<KvStore>` it is handed: that client's policy governs retries
/// of *transient* KV failures (throttling) on the store's own reads and
/// writes, and its counter counts their attempts. Cheap to clone; clones
/// share the table and the client.
#[derive(Clone)]
pub struct IdempotencyStore {
    kv: Retrying<KvStore>,
    table: String,
}

impl IdempotencyStore {
    /// A store over `table` (created if missing), reached through `kv`.
    pub fn new(kv: &Retrying<KvStore>, table: &str) -> IdempotencyStore {
        kv.inner().create_table(table);
        IdempotencyStore {
            kv: kv.clone(),
            table: table.to_owned(),
        }
    }

    /// Run `op` (or skip it) so that exactly one effect is ever
    /// committed under `key`, no matter how many concurrent or
    /// sequential executions share that key.
    ///
    /// - First committed execution: runs `op`, commits its value with a
    ///   conditional write, returns `deduped: false`.
    /// - Any later execution: returns the committed value with
    ///   `deduped: true` — either from the fast-path read or after
    ///   losing the `put_if(NotExists)` race.
    pub async fn execute<Fut>(
        &self,
        caller: &Host,
        key: &str,
        op: impl FnOnce() -> Fut,
    ) -> Result<Effect, RetryError<KvError>>
    where
        Fut: Future<Output = Payload>,
    {
        // Fast path: the effect may already be committed.
        if let Some(prior) = self.read(caller, key).await? {
            self.kv.recorder.incr("resil.idem.dedup");
            return Ok(Effect {
                value: prior,
                deduped: true,
            });
        }
        let value = op().await;
        let committed = self
            .kv
            .call(Deadline::unbounded(), |kv| {
                kv.put_if(caller, &self.table, key, value.clone(), Condition::NotExists)
            })
            .await;
        match committed {
            Ok(_) => {
                self.kv.recorder.incr("resil.idem.committed");
                Ok(Effect {
                    value,
                    deduped: false,
                })
            }
            // Another execution committed first; its value is the one
            // observable effect.
            Err(RetryError::Fatal(KvError::ConditionFailed)) => {
                self.kv.recorder.incr("resil.idem.lost_race");
                let winner = self.read(caller, key).await?.ok_or(RetryError::Fatal(
                    // A NotExists failure guarantees the key exists.
                    KvError::NoSuchKey(key.to_owned()),
                ))?;
                Ok(Effect {
                    value: winner,
                    deduped: true,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Strongly-consistent read of the committed effect under `key`,
    /// retrying transient failures. `None` when nothing is committed.
    async fn read(&self, caller: &Host, key: &str) -> Result<Option<Payload>, RetryError<KvError>> {
        let got = self
            .kv
            .call(Deadline::unbounded(), |kv| {
                kv.get(caller, &self.table, key, Consistency::Strong)
            })
            .await;
        match got {
            Ok(item) => Ok(Some(item.value)),
            Err(RetryError::Fatal(KvError::NoSuchKey(_))) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Every committed effect whose key starts with `prefix`, in key
    /// order — the ground truth for exactly-once invariant checks.
    pub async fn committed(
        &self,
        caller: &Host,
        prefix: &str,
    ) -> Result<Vec<(String, Payload)>, RetryError<KvError>> {
        let rows = self
            .kv
            .call(Deadline::unbounded(), |kv| kv.scan_prefix(caller, &self.table, prefix))
            .await?;
        Ok(rows
            .into_iter()
            .map(|(k, item)| (k, item.value))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retry::RetryPolicy;
    use faasim::{Cloud, CloudProfile};
    use std::cell::Cell;
    use std::rc::Rc;

    fn store(cloud: &Cloud) -> IdempotencyStore {
        let kv = Retrying::new(
            &cloud.sim,
            &cloud.kv,
            cloud.recorder.clone(),
            RetryPolicy::default(),
            "resil.idem.test",
        );
        IdempotencyStore::new(&kv, "effects")
    }

    #[test]
    fn duplicate_keys_run_the_effect_once() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 17);
        let s = store(&cloud);
        let host = cloud.client_host();
        let runs = Rc::new(Cell::new(0u32));
        let r = runs.clone();
        cloud.sim.block_on(async move {
            for _ in 0..5 {
                let r2 = r.clone();
                let eff = s
                    .execute(&host, "req-1", move || {
                        r2.set(r2.get() + 1);
                        async { Payload::inline("done") }
                    })
                    .await
                    .expect("execute");
                assert!(eff.value.eq_bytes(b"done"));
            }
            assert_eq!(s.committed(&host, "req-").await.unwrap().len(), 1);
        });
        assert_eq!(runs.get(), 1, "the effect body ran exactly once");
        assert_eq!(cloud.recorder.counter("resil.idem.committed"), 1);
        assert_eq!(cloud.recorder.counter("resil.idem.dedup"), 4);
    }

    #[test]
    fn concurrent_racers_commit_exactly_once() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 18);
        let s = store(&cloud);
        let host = cloud.client_host();
        let sim = cloud.sim.clone();
        let mut handles = Vec::new();
        for i in 0..8u32 {
            let s = s.clone();
            let host = host.clone();
            handles.push(sim.spawn(async move {
                s.execute(&host, "race", move || async move {
                    Payload::inline(format!("winner-{i}"))
                })
                .await
                .expect("execute")
            }));
        }
        let sim2 = sim.clone();
        let s2 = s.clone();
        let host2 = host.clone();
        sim.block_on(async move {
            let effects = faasim_simcore::join_all(handles).await;
            // All eight observe the same single committed value.
            let first = effects[0].value.to_vec();
            assert!(effects.iter().all(|e| e.value.to_vec() == first));
            assert_eq!(effects.iter().filter(|e| !e.deduped).count(), 1);
            assert_eq!(s2.committed(&host2, "race").await.unwrap().len(), 1);
            let _ = sim2;
        });
        assert_eq!(cloud.recorder.counter("resil.idem.committed"), 1);
    }

    /// Under throttling the store's operations retry through the client
    /// it was handed — whose counter shows the extra attempts — and each
    /// key still commits exactly one effect.
    #[test]
    fn throttled_operations_retry_through_the_client_and_commit_once() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 20);
        cloud.kv.set_faults(faasim_kv::KvFaults { throttle_prob: 0.3 });
        let s = store(&cloud);
        let host = cloud.client_host();
        let runs = Rc::new(Cell::new(0u32));
        let r = runs.clone();
        cloud.sim.block_on(async move {
            for round in 0..3 {
                for key in 0..10 {
                    let r2 = r.clone();
                    let eff = s
                        .execute(&host, &format!("req-{key}"), move || {
                            r2.set(r2.get() + 1);
                            async move { Payload::inline(format!("effect-{key}")) }
                        })
                        .await
                        .expect("five attempts outlast 30% throttling at this seed");
                    assert_eq!(eff.deduped, round > 0);
                }
            }
            assert_eq!(s.committed(&host, "req-").await.unwrap().len(), 10);
        });
        assert_eq!(runs.get(), 10, "one effect body per key");
        assert_eq!(cloud.recorder.counter("resil.idem.committed"), 10);
        // 30 fast-path reads, 10 conditional writes and the final scan.
        let operations = 30 + 10 + 1;
        assert!(cloud.recorder.counter("kv.throttled") > 0, "faults fired");
        assert_eq!(
            cloud.recorder.counter("chaos.kv.attempts"),
            operations + cloud.recorder.counter("kv.throttled"),
            "every throttled attempt was retried, and counted"
        );
    }

    #[test]
    fn distinct_keys_commit_independently() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 19);
        let s = store(&cloud);
        let host = cloud.client_host();
        cloud.sim.block_on(async move {
            for i in 0..4 {
                s.execute(&host, &format!("job-{i}"), || async move {
                    Payload::inline(format!("out-{i}"))
                })
                .await
                .expect("execute");
            }
            let rows = s.committed(&host, "job-").await.unwrap();
            assert_eq!(rows.len(), 4);
            assert!(rows[2].1.eq_bytes(b"out-2"));
        });
    }
}
