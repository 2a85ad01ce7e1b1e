//! The gateway as something [`Retrying`] can invoke through: typed
//! sheds are backed off on, and when the shed names the instant
//! capacity returns (a token refill, a breaker cooldown) the retry
//! never fires earlier than that.

use faasim_faas::{FnError, InvokeOutcome};
use faasim_payload::Payload;
use faasim_resilience::{settled, Invoke, Retrying};
use faasim_simcore::SimTime;

use crate::gateway::{Gateway, GatewayError};

/// A [`Gateway`] client that retries transient refusals (rate limits,
/// load sheds, open breakers) and transient platform failures with
/// backoff, inside a deadline budget: `invoke((tenant, func), ..)`.
pub type RetryingGateway = Retrying<Gateway>;

impl From<FnError> for GatewayError {
    fn from(err: FnError) -> GatewayError {
        GatewayError::Function(err)
    }
}

impl Invoke for Gateway {
    type Call<'a> = (u32, &'a str);
    type Error = GatewayError;

    fn attempts_counter(&self) -> &'static str {
        "resil.gateway.attempts"
    }

    async fn attempt(
        &self,
        (tenant, func): Self::Call<'_>,
        payload: Payload,
    ) -> Result<InvokeOutcome, GatewayError> {
        settled(self.invoke(tenant, func, payload).await?)
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
    use faasim_resilience::{Deadline, RetryPolicy};
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
        let client = RetryingGateway::new(
            &cloud.sim,
            &gw,
            cloud.recorder.clone(),
            RetryPolicy::default(),
            "gw.retry.test",
        );
        let payload = Payload::inline("x");
        cloud.sim.block_on(async move {
            // Burst of 1: the first call drains the bucket, the second
            // must be shed and then retried no earlier than the refill.
            client
                .invoke((0, "work"), &payload, Deadline::unbounded())
                .await
                .expect("first");
            client
                .invoke((0, "work"), &payload, Deadline::unbounded())
                .await
                .expect("second");
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
        let client = RetryingGateway::new(
            &cloud.sim,
            &gw,
            cloud.recorder.clone(),
            RetryPolicy { max_attempts: 3, ..RetryPolicy::default() },
            "gw.retry.test",
        );
        let payload = Payload::inline("x");
        let sim = cloud.sim.clone();
        let got = cloud.sim.block_on(async move {
            client
                .invoke((0, "work"), &payload, Deadline::unbounded())
                .await
                .expect("first");
            // retry_after is SimTime::MAX, so the deadline budget (not
            // the backoff spine) must end the loop.
            client
                .invoke(
                    (0, "work"),
                    &payload,
                    Deadline::within(&sim, SimDuration::from_secs(60)),
                )
                .await
        });
        assert!(
            matches!(got, Err(ref e) if e.is_deadline()),
            "a never-refilling bucket must exhaust the deadline budget, got {got:?}"
        );
    }
}
