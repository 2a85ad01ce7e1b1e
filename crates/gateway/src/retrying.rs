//! The gateway as a [`Service`] a `Retrying<Gateway>` calls through:
//! typed sheds are backed off on, and when the shed names the instant
//! capacity returns (a token refill, a breaker cooldown) the retry
//! never fires earlier than that.

use faasim_faas::FnError;
use faasim_resilience::Service;
use faasim_simcore::SimTime;

use crate::gateway::{Gateway, GatewayError};

impl From<FnError> for GatewayError {
    fn from(err: FnError) -> GatewayError {
        GatewayError::Function(err)
    }
}

impl Service for Gateway {
    type Error = GatewayError;
    const RACE: bool = false;

    fn attempts(&self) -> &'static str {
        "resil.gateway.attempts"
    }

    // A typed shed can name when capacity returns; retrying earlier
    // than that is guaranteed wasted work.
    fn retry_at(err: &GatewayError) -> Option<SimTime> {
        err.is_transient()
            .then(|| err.retry_after().unwrap_or(SimTime::ZERO))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateway::{GatewayConfig, TenantConfig};
    use faasim::{Cloud, CloudProfile};
    use faasim_faas::FunctionSpec;
    use faasim_payload::Payload;
    use faasim_resilience::{settled, Deadline, RetryError, RetryPolicy, Retrying};
    use faasim_simcore::SimDuration;

    #[test]
    fn backs_off_past_the_token_refill_and_succeeds() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 21);
        cloud.faas.register(FunctionSpec::new(
            "work",
            256,
            SimDuration::from_secs(30),
            |ctx, _payload| async move {
                ctx.cpu(SimDuration::from_millis(5)).await;
                Ok(Payload::inline("ok"))
            },
        ));
        // A refill slow enough (20 s/token) that no amount of cold-start
        // latency on the first call can hide the shed of the second.
        let mut cfg = GatewayConfig::new(vec![TenantConfig {
            rate: 0.05,
            burst: 1.0,
            ..TenantConfig::default()
        }]);
        cfg.overhead = SimDuration::ZERO;
        let gw = Gateway::new(
            &cloud.sim,
            &cloud.faas,
            cloud.ledger.clone(),
            cloud.recorder.clone(),
            &cloud.prices,
            cfg,
        );
        let client = Retrying::new(
            &cloud.sim,
            &gw,
            cloud.recorder.clone(),
            RetryPolicy::default(),
            "gw.retry.test",
        );
        cloud.sim.block_on(async move {
            let call = || {
                client.call(Deadline::unbounded(), |gw| async move {
                    settled(gw.invoke(0, "work", Payload::inline("x")).await?)
                })
            };
            // Burst of 1: the first call drains the bucket, the second
            // must be shed and then retried no earlier than the refill.
            call().await.expect("first");
            call().await.expect("second");
        });
        let st = gw.tenant_stats(0);
        assert_eq!(st.admitted, 2);
        assert!(st.bucket_shed >= 1, "the second call was shed at least once");
        assert!(st.conserved());
        // At 0.05 tokens/s a full refill takes 20 s: the retry that
        // succeeded cannot have fired before then.
        assert!(cloud.sim.now() >= faasim_simcore::SimTime::from_nanos(20_000_000_000));
        assert!(cloud.recorder.counter("resil.gateway.attempts") >= 3);
    }

    #[test]
    fn exhaustion_reports_the_last_shed() {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), 22);
        cloud.faas.register(FunctionSpec::new(
            "work",
            256,
            SimDuration::from_secs(30),
            |_ctx, _payload| async move { Ok(Payload::inline("ok")) },
        ));
        // Zero rate, burst 1: after the first admission the tenant is
        // rate limited forever.
        let mut cfg = GatewayConfig::new(vec![TenantConfig {
            rate: 0.0,
            burst: 1.0,
            ..TenantConfig::default()
        }]);
        cfg.overhead = SimDuration::ZERO;
        let gw = Gateway::new(
            &cloud.sim,
            &cloud.faas,
            cloud.ledger.clone(),
            cloud.recorder.clone(),
            &cloud.prices,
            cfg,
        );
        let client = Retrying::new(
            &cloud.sim,
            &gw,
            cloud.recorder.clone(),
            RetryPolicy { max_attempts: 3, ..RetryPolicy::default() },
            "gw.retry.test",
        );
        let sim = cloud.sim.clone();
        let got = cloud.sim.block_on(async move {
            let call = |deadline| {
                client.call(deadline, |gw| async move {
                    settled(gw.invoke(0, "work", Payload::inline("x")).await?)
                })
            };
            call(Deadline::unbounded()).await.expect("first");
            // retry_after is SimTime::MAX, so the deadline budget (not
            // the backoff spine) must end the loop.
            call(Deadline::at(sim.now() + SimDuration::from_secs(60))).await
        });
        assert!(
            matches!(got, Err(RetryError::DeadlineExceeded { .. })),
            "a never-refilling bucket must exhaust the deadline budget, got {got:?}"
        );
    }
}
