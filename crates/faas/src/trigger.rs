//! Event sources: queue-batch triggers.
//!
//! These are the "event-driven workflows of Lambda functions, stitched
//! together via queueing systems (such as SQS)" that §2's *function
//! composition* pattern describes.

use std::cell::Cell;
use std::rc::Rc;

use faasim_net::{Fabric, NicConfig};
use faasim_payload::Payload;
use faasim_queue::{QueueService, MAX_BATCH};
use faasim_simcore::{mbps, SimDuration};

use crate::codec::encode_batch;
use crate::platform::FaasPlatform;

/// Handle to stop a running trigger.
#[derive(Clone)]
pub struct TriggerHandle {
    stop: Rc<Cell<bool>>,
}

impl TriggerHandle {
    /// Ask the trigger loop to stop after its current iteration.
    pub fn stop(&self) {
        self.stop.set(true);
    }
}

/// Attach a queue trigger: an event-source poller that long-polls
/// `queue`, invokes `func` with each batch (encoded via
/// [`crate::codec::encode_batch`]), and deletes the batch on success.
/// Failed invocations leave messages to reappear after the visibility
/// timeout (at-least-once semantics).
///
/// # Panics
/// Panics if `func` is not registered: the trigger resolves it once, here,
/// and a re-`register` of the name keeps the id it binds to.
pub fn add_queue_trigger(
    platform: &FaasPlatform,
    queues: &QueueService,
    fabric: &Fabric,
    func: &str,
    queue: &str,
    batch_size: usize,
) -> TriggerHandle {
    let func = platform
        .function_id(func)
        .unwrap_or_else(|| panic!("no such function: {func}"));
    let stop = Rc::new(Cell::new(false));
    let handle = TriggerHandle { stop: stop.clone() };
    let platform = platform.clone();
    let queues = queues.clone();
    let queue = queue.to_owned();
    let batch_size = batch_size.clamp(1, MAX_BATCH);
    // The poller is part of the managed service; its host models the
    // event-source-mapping fleet, not the customer's containers.
    let poller_host = fabric.add_host(0, NicConfig::simple(mbps(10_000.0)));
    platform.sim_handle().spawn(async move {
        loop {
            if stop.get() {
                break;
            }
            let received = match queues
                .receive(&poller_host, &queue, batch_size, SimDuration::MAX)
                .await
            {
                Ok(batch) => batch,
                Err(_) => break, // queue deleted: trigger dies
            };
            if received.is_empty() {
                continue;
            }
            let bodies: Vec<Payload> = received.iter().map(|m| m.body.clone()).collect();
            let payload = encode_batch(&bodies);
            let outcome = platform.invoke_triggered(func, payload).await;
            if outcome.result.is_ok() {
                let receipts = received.into_iter().map(|m| m.receipt).collect();
                let _ = queues.delete_batch(&poller_host, receipts).await;
            }
        }
    });
    handle
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaasProfile;
    use crate::platform::FunctionSpec;
    use faasim_net::NetProfile;
    use faasim_pricing::{Ledger, PriceBook};
    use faasim_queue::{QueueConfig, QueueProfile};
    use faasim_simcore::{Recorder, Sim};

    struct World {
        sim: Sim,
        fabric: Fabric,
        platform: FaasPlatform,
        queues: QueueService,
    }

    fn setup() -> World {
        let sim = Sim::new(61);
        let recorder = Recorder::new();
        let fabric = Fabric::new(&sim, NetProfile::aws_2018().exact(), recorder.clone());
        let prices = Rc::new(PriceBook::aws_2018());
        let ledger = Ledger::new();
        let platform = FaasPlatform::new(
            &sim,
            &fabric,
            FaasProfile::aws_2018().exact(),
            prices.clone(),
            ledger.clone(),
            recorder.clone(),
        );
        let queues = QueueService::new(
            &sim,
            QueueProfile::aws_2018().exact(),
            prices,
            ledger,
            recorder,
        );
        World {
            sim,
            fabric,
            platform,
            queues,
        }
    }

    #[test]
    fn queue_trigger_processes_batches() {
        let w = setup();
        w.queues.create_queue("in", QueueConfig::default());
        let processed = Rc::new(Cell::new(0usize));
        let p = processed.clone();
        w.platform.register(FunctionSpec::new(
            "consumer",
            256,
            SimDuration::from_secs(30),
            move |_ctx, payload| {
                let p = p.clone();
                async move {
                    let docs = crate::codec::decode_batch(&payload).unwrap();
                    p.set(p.get() + docs.len());
                    Ok(Payload::new())
                }
            },
        ));
        let _trigger =
            add_queue_trigger(&w.platform, &w.queues, &w.fabric, "consumer", "in", 10);
        let host = w.fabric.add_host(0, NicConfig::simple(mbps(1000.0)));
        let queues = w.queues.clone();
        w.sim.spawn(async move {
            for i in 0..25u8 {
                queues
                    .send(&host, "in", Payload::from(vec![i]))
                    .await
                    .unwrap();
            }
        });
        w.sim.run();
        assert_eq!(processed.get(), 25);
        // Everything consumed and deleted.
        assert_eq!(w.queues.queue_len("in"), 0);
    }

    #[test]
    fn failed_invocations_leave_messages_for_redelivery() {
        let w = setup();
        w.queues.create_queue(
            "in",
            QueueConfig {
                visibility_timeout: SimDuration::from_secs(5),
                dead_letter: None,
            },
        );
        let attempts = Rc::new(Cell::new(0u32));
        let a = attempts.clone();
        w.platform.register(FunctionSpec::new(
            "flaky",
            256,
            SimDuration::from_secs(30),
            move |_ctx, _payload| {
                let a = a.clone();
                async move {
                    a.set(a.get() + 1);
                    if a.get() < 3 {
                        Err(crate::platform::FnError::Handler("transient".into()))
                    } else {
                        Ok(Payload::new())
                    }
                }
            },
        ));
        let trigger = add_queue_trigger(&w.platform, &w.queues, &w.fabric, "flaky", "in", 10);
        let host = w.fabric.add_host(0, NicConfig::simple(mbps(1000.0)));
        let queues = w.queues.clone();
        w.sim.spawn(async move {
            queues.send(&host, "in", Payload::from_static(b"m")).await.unwrap();
        });
        // Let redeliveries happen, then stop the trigger so the run ends.
        w.sim.run_until(faasim_simcore::SimTime::ZERO + SimDuration::from_secs(60));
        trigger.stop();
        assert_eq!(attempts.get(), 3, "two failures then success");
        assert_eq!(w.queues.queue_len("in"), 0);
    }

    /// A trigger resolves its function once, when added: an unregistered
    /// name is a deployment error, not a batch redelivered forever. The id
    /// it binds survives a re-`register`, so the trigger runs the new spec.
    #[test]
    fn a_trigger_binds_a_registered_function_by_id() {
        let w = setup();
        w.queues.create_queue("in", QueueConfig::default());
        let unregistered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            add_queue_trigger(&w.platform, &w.queues, &w.fabric, "ghost", "in", 10)
        }));
        let msg = unregistered
            .err()
            .and_then(|panic| panic.downcast::<String>().ok())
            .expect("a trigger on an unregistered name panics");
        assert!(msg.contains("no such function"), "{msg}");

        let runs = Rc::new(Cell::new((0u32, 0u32)));
        let spec = |second: bool| {
            let runs = runs.clone();
            FunctionSpec::new(
                "consumer",
                256,
                SimDuration::from_secs(30),
                move |_ctx, _payload| {
                    let (first, again) = runs.get();
                    runs.set(if second {
                        (first, again + 1)
                    } else {
                        (first + 1, again)
                    });
                    async { Ok(Payload::new()) }
                },
            )
        };
        w.platform.register(spec(false));
        let _trigger = add_queue_trigger(&w.platform, &w.queues, &w.fabric, "consumer", "in", 1);
        w.platform.register(spec(true));
        let host = w.fabric.add_host(0, NicConfig::simple(mbps(1000.0)));
        let queues = w.queues.clone();
        w.sim.spawn(async move {
            for i in 0..3u8 {
                queues.send(&host, "in", Payload::from(vec![i])).await.unwrap();
            }
        });
        w.sim.run();
        assert_eq!(runs.get(), (0, 3), "every batch ran the re-registered spec");
        assert_eq!(w.queues.queue_len("in"), 0);
    }
}
