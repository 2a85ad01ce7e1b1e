//! # faasim-queue
//!
//! An SQS-like message queue service plus an SNS-like topic fanout.
//!
//! Faithful to the properties the paper leans on in §3.1's prediction-
//! serving case study:
//! - batches are capped at **10 messages** ("SQS only allows batches of 10
//!   messages at a time, so we limited all experiments here to 10-message
//!   batches");
//! - at-least-once delivery with **visibility timeouts** and receipt
//!   handles;
//! - **per-request pricing** ($0.40 per million requests) — the mechanism
//!   behind the $1,584/hr figure at 1M messages/s;
//! - long polling.
//!
//! Latency calibration: an EC2 consumer's receive+delete of a ready batch
//! costs ~13 ms (11 ms receive + 2 ms delete), the paper's EC2+SQS number.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use faasim_net::Host;
use faasim_payload::Payload;
use faasim_pricing::{LazyItem, Ledger, PriceBook, Service};
use faasim_simcore::{
    select2, Either, LatencyModel, LazyCounter, Notify, Recorder, Sim, SimDuration, SimRng, SimTime,
};

/// The SQS batch ceiling.
pub const MAX_BATCH: usize = 10;

/// Errors returned by queue operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueueError {
    /// The queue does not exist.
    NoSuchQueue(String),
    /// A receipt was stale (message already redelivered or deleted).
    InvalidReceipt,
    /// A batch exceeded [`MAX_BATCH`].
    BatchTooLarge(usize),
}

impl fmt::Display for QueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueError::NoSuchQueue(q) => write!(f, "no such queue: {q}"),
            QueueError::InvalidReceipt => write!(f, "invalid receipt"),
            QueueError::BatchTooLarge(n) => write!(f, "batch of {n} exceeds {MAX_BATCH}"),
        }
    }
}

impl std::error::Error for QueueError {}

/// Latency profile of the queue service.
#[derive(Clone, Debug)]
pub struct QueueProfile {
    /// Latency of a send request.
    pub send_latency: LatencyModel,
    /// Latency of a receive request that finds messages ready.
    pub receive_latency: LatencyModel,
    /// Latency of a delete request.
    pub delete_latency: LatencyModel,
}

impl QueueProfile {
    /// Calibrated to §3.1 CS-2 (13 ms receive+delete per ready batch).
    pub fn aws_2018() -> QueueProfile {
        QueueProfile {
            send_latency: LatencyModel::LogNormal {
                mean: SimDuration::from_millis(5),
                cv: 0.2,
                floor: SimDuration::from_millis(1),
            },
            receive_latency: LatencyModel::LogNormal {
                mean: SimDuration::from_millis(11),
                cv: 0.2,
                floor: SimDuration::from_millis(2),
            },
            delete_latency: LatencyModel::LogNormal {
                mean: SimDuration::from_millis(2),
                cv: 0.2,
                floor: SimDuration::from_micros(500),
            },
        }
    }

    /// Collapse to constant means for exact reproduction.
    pub fn exact(mut self) -> QueueProfile {
        self.send_latency = self.send_latency.to_constant();
        self.receive_latency = self.receive_latency.to_constant();
        self.delete_latency = self.delete_latency.to_constant();
        self
    }
}

/// Per-queue configuration.
#[derive(Clone, Debug)]
pub struct QueueConfig {
    /// How long a received message stays invisible before redelivery.
    pub visibility_timeout: SimDuration,
    /// Dead-letter routing: after `max_receives` receives without a
    /// delete, the message moves to `queue`.
    pub dead_letter: Option<DeadLetterConfig>,
}

/// Dead-letter queue wiring.
#[derive(Clone, Debug)]
pub struct DeadLetterConfig {
    /// Target queue for poisoned messages.
    pub queue: String,
    /// Maximum receives before dead-lettering.
    pub max_receives: u32,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            visibility_timeout: SimDuration::from_secs(30),
            dead_letter: None,
        }
    }
}

/// Identifier of an enqueued message.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MessageId(pub u64);

/// Receipt handle required to delete a received message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Receipt {
    queue: String,
    id: MessageId,
    generation: u32,
}

/// A message delivered by [`QueueService::receive`].
#[derive(Clone, Debug)]
pub struct ReceivedMessage {
    /// The message id.
    pub id: MessageId,
    /// Payload.
    pub body: Payload,
    /// Receipt handle for deletion.
    pub receipt: Receipt,
    /// How many times this message has been received (including this one).
    pub receive_count: u32,
    /// When the message was first enqueued.
    pub enqueued_at: SimTime,
}

struct StoredMessage {
    id: MessageId,
    body: Payload,
    visible_at: SimTime,
    receive_count: u32,
    generation: u32,
    enqueued_at: SimTime,
    deleted: bool,
}

struct QueueState {
    config: QueueConfig,
    messages: Vec<StoredMessage>,
    arrivals: Notify,
}

impl QueueState {
    fn next_visible_at(&self, now: SimTime) -> Option<SimTime> {
        self.messages
            .iter()
            .filter(|m| !m.deleted && m.visible_at > now)
            .map(|m| m.visible_at)
            .min()
    }
}

/// Deterministic fault knobs for the queue service, modeling the rough
/// edges of at-least-once delivery. Zero by default; no RNG draws are
/// consumed while every probability is zero, so enabling chaos never
/// perturbs a fault-free run at the same seed.
#[derive(Clone, Debug, PartialEq)]
pub struct QueueFaults {
    /// Probability that a client-sent message is enqueued twice with two
    /// distinct ids (upstream duplication — the sender's retry after a
    /// lost acknowledgment).
    pub duplicate_prob: f64,
    /// Probability that a client-sent message only becomes visible after
    /// an extra [`QueueFaults::delay`] (a slow shard).
    pub delay_prob: f64,
    /// The extra delay applied when [`QueueFaults::delay_prob`] hits.
    pub delay: LatencyModel,
}

impl Default for QueueFaults {
    fn default() -> Self {
        QueueFaults {
            duplicate_prob: 0.0,
            delay_prob: 0.0,
            delay: LatencyModel::Constant(SimDuration::from_secs(1)),
        }
    }
}

struct ServiceState {
    queues: BTreeMap<String, QueueState>,
    topics: BTreeMap<String, Vec<String>>,
    next_id: u64,
    rng: SimRng,
    faults: QueueFaults,
}

/// Recorder and ledger handles of the per-request path, resolved on
/// first use (see [`LazyCounter`]): a request indexes its series instead
/// of hashing their names. Each counter is `queue.<field>`.
struct Handles {
    enqueued: LazyCounter,
    chaos_duplicated: LazyCounter,
    chaos_delayed: LazyCounter,
    send: LazyCounter,
    receive: LazyCounter,
    received: LazyCounter,
    dead_lettered: LazyCounter,
    deleted_messages: LazyCounter,
    delete: LazyCounter,
    publish: LazyCounter,
    bill_requests: LazyItem,
}

/// The queue service handle. Cheap to clone.
#[derive(Clone)]
pub struct QueueService {
    sim: Sim,
    profile: Rc<QueueProfile>,
    prices: Rc<PriceBook>,
    ledger: Ledger,
    recorder: Recorder,
    handles: Rc<Handles>,
    state: Rc<RefCell<ServiceState>>,
}

impl QueueService {
    /// Create the service.
    pub fn new(
        sim: &Sim,
        profile: QueueProfile,
        prices: Rc<PriceBook>,
        ledger: Ledger,
        recorder: Recorder,
    ) -> QueueService {
        QueueService {
            sim: sim.clone(),
            profile: Rc::new(profile),
            prices,
            ledger,
            recorder,
            handles: Rc::new(Handles {
                enqueued: LazyCounter::new("queue.enqueued"),
                chaos_duplicated: LazyCounter::new("queue.chaos_duplicated"),
                chaos_delayed: LazyCounter::new("queue.chaos_delayed"),
                send: LazyCounter::new("queue.send"),
                receive: LazyCounter::new("queue.receive"),
                received: LazyCounter::new("queue.received"),
                dead_lettered: LazyCounter::new("queue.dead_lettered"),
                deleted_messages: LazyCounter::new("queue.deleted_messages"),
                delete: LazyCounter::new("queue.delete"),
                publish: LazyCounter::new("queue.publish"),
                bill_requests: LazyItem::new(Service::Queue, "requests"),
            }),
            state: Rc::new(RefCell::new(ServiceState {
                queues: BTreeMap::new(),
                topics: BTreeMap::new(),
                next_id: 0,
                rng: sim.rng("queue.service"),
                faults: QueueFaults::default(),
            })),
        }
    }

    /// Create a queue (idempotent; reconfigures if it exists).
    pub fn create_queue(&self, name: &str, config: QueueConfig) {
        let mut st = self.state.borrow_mut();
        match st.queues.get_mut(name) {
            Some(q) => q.config = config,
            None => {
                st.queues.insert(
                    name.to_owned(),
                    QueueState {
                        config,
                        messages: Vec::new(),
                        arrivals: Notify::new(),
                    },
                );
            }
        }
    }

    fn sample(&self, model: &LatencyModel) -> SimDuration {
        let mut st = self.state.borrow_mut();
        model.sample(&mut st.rng)
    }

    fn charge_request(&self, n: f64) {
        self.handles
            .bill_requests
            .charge(&self.ledger, n, n * self.prices.queue_per_request);
    }

    /// Install chaos knobs; pass `QueueFaults::default()` to disable.
    pub fn set_faults(&self, faults: QueueFaults) {
        self.state.borrow_mut().faults = faults;
    }

    /// Enqueue message bodies. `client_send` marks messages arriving from
    /// a client request — only those are subject to chaos duplication and
    /// delay (internal dead-letter moves are exempt).
    fn enqueue_now(
        &self,
        queue: &str,
        bodies: Vec<Payload>,
        client_send: bool,
    ) -> Result<Vec<MessageId>, QueueError> {
        let now = self.sim.now();
        let mut st = self.state.borrow_mut();
        // Decide per-body faults before touching the queue map (rng and
        // queues live in the same RefCell'd struct). `copies` is 1 or 2;
        // `extra_delay` shifts initial visibility.
        let plans: Vec<(u32, SimDuration)> = bodies
            .iter()
            .map(|_| {
                if !client_send {
                    return (1, SimDuration::ZERO);
                }
                let faults = st.faults.clone();
                let copies = if faults.duplicate_prob > 0.0 && st.rng.chance(faults.duplicate_prob)
                {
                    2
                } else {
                    1
                };
                let delay = if faults.delay_prob > 0.0 && st.rng.chance(faults.delay_prob) {
                    faults.delay.sample(&mut st.rng)
                } else {
                    SimDuration::ZERO
                };
                (copies, delay)
            })
            .collect();
        let total: u64 = plans.iter().map(|(c, _)| *c as u64).sum();
        let base = st.next_id;
        st.next_id += total;
        let q = st
            .queues
            .get_mut(queue)
            .ok_or_else(|| QueueError::NoSuchQueue(queue.to_owned()))?;
        let mut ids = Vec::with_capacity(bodies.len());
        let mut next = base;
        let mut duplicated = 0u64;
        let mut delayed = 0u64;
        for (body, (copies, extra_delay)) in bodies.into_iter().zip(plans) {
            if copies > 1 {
                duplicated += 1;
            }
            if extra_delay > SimDuration::ZERO {
                delayed += 1;
            }
            for copy in 0..copies {
                let id = MessageId(next);
                next += 1;
                q.messages.push(StoredMessage {
                    id,
                    body: body.clone(),
                    visible_at: now + extra_delay,
                    receive_count: 0,
                    generation: 0,
                    enqueued_at: now,
                    deleted: false,
                });
                // The caller learns one id per body, like a sender whose
                // retry created an invisible second copy.
                if copy == 0 {
                    ids.push(id);
                }
            }
        }
        q.arrivals.notify_all();
        drop(st);
        // Conservation ledger: every stored copy (including chaos
        // duplicates and internal dead-letter moves) is accounted for,
        // so `queue.enqueued == queue.deleted_messages +
        // queue.dead_lettered + total_remaining()` holds at quiescence.
        if total > 0 {
            self.handles.enqueued.add(&self.recorder, total);
        }
        if duplicated > 0 {
            self.handles
                .chaos_duplicated
                .add(&self.recorder, duplicated);
        }
        if delayed > 0 {
            self.handles.chaos_delayed.add(&self.recorder, delayed);
        }
        Ok(ids)
    }

    /// Send one message (one billed request).
    pub async fn send(
        &self,
        _caller: &Host,
        queue: &str,
        body: impl Into<Payload>,
    ) -> Result<MessageId, QueueError> {
        let latency = self.sample(&self.profile.send_latency);
        self.sim.sleep(latency).await;
        let ids = self.enqueue_now(queue, vec![body.into()], true)?;
        self.charge_request(1.0);
        self.handles.send.incr(&self.recorder);
        Ok(ids[0])
    }

    /// Send up to [`MAX_BATCH`] messages as one billed request.
    pub async fn send_batch(
        &self,
        _caller: &Host,
        queue: &str,
        bodies: Vec<impl Into<Payload>>,
    ) -> Result<Vec<MessageId>, QueueError> {
        if bodies.len() > MAX_BATCH {
            return Err(QueueError::BatchTooLarge(bodies.len()));
        }
        let latency = self.sample(&self.profile.send_latency);
        self.sim.sleep(latency).await;
        let n = bodies.len();
        let bodies: Vec<Payload> = bodies.into_iter().map(Into::into).collect();
        let ids = self.enqueue_now(queue, bodies, true)?;
        self.charge_request(1.0);
        self.handles.send.add(&self.recorder, n as u64);
        Ok(ids)
    }

    /// Receive up to `max` (≤ [`MAX_BATCH`]) messages, long-polling up to
    /// `wait`. One billed request per poll attempt, matching SQS. Returns
    /// an empty vector on timeout.
    pub async fn receive(
        &self,
        _caller: &Host,
        queue: &str,
        max: usize,
        wait: SimDuration,
    ) -> Result<Vec<ReceivedMessage>, QueueError> {
        let max = max.clamp(1, MAX_BATCH);
        let deadline = self.sim.now().saturating_add(wait);
        // Pay one request regardless of outcome.
        self.charge_request(1.0);
        self.handles.receive.incr(&self.recorder);
        loop {
            // Dead-letter sweep + claim attempt.
            let claimed = self.try_claim(queue, max)?;
            if !claimed.is_empty() {
                let latency = self.sample(&self.profile.receive_latency);
                self.sim.sleep(latency).await;
                self.handles
                    .received
                    .add(&self.recorder, claimed.len() as u64);
                return Ok(claimed);
            }
            let now = self.sim.now();
            if now >= deadline {
                // Empty long poll still pays response latency.
                let latency = self.sample(&self.profile.receive_latency);
                self.sim.sleep(latency).await;
                return Ok(Vec::new());
            }
            // Wait for an arrival or the next visibility boundary.
            let (arrivals, wake_at) = {
                let st = self.state.borrow();
                let q = st
                    .queues
                    .get(queue)
                    .ok_or_else(|| QueueError::NoSuchQueue(queue.to_owned()))?;
                let next_vis = q.next_visible_at(now).unwrap_or(SimTime::MAX);
                (q.arrivals.clone(), next_vis.min(deadline))
            };
            // With nothing scheduled to become visible and an unbounded
            // wait, park on the arrival notifier alone: registering a
            // timer at the far-future instant would keep the simulation
            // from quiescing.
            if wake_at == SimTime::MAX {
                arrivals.notified().await;
                continue;
            }
            match select2(arrivals.notified(), self.sim.sleep_until(wake_at)).await {
                Either::Left(()) | Either::Right(()) => continue,
            }
        }
    }

    fn try_claim(&self, queue: &str, max: usize) -> Result<Vec<ReceivedMessage>, QueueError> {
        let now = self.sim.now();
        let mut dead_lettered: Vec<Payload> = Vec::new();
        let mut dlq_target: Option<String> = None;
        let mut out = Vec::new();
        {
            let mut st = self.state.borrow_mut();
            let q = st
                .queues
                .get_mut(queue)
                .ok_or_else(|| QueueError::NoSuchQueue(queue.to_owned()))?;
            let vt = q.config.visibility_timeout;
            let dl = q.config.dead_letter.clone();
            for m in q.messages.iter_mut() {
                if out.len() >= max {
                    break;
                }
                if m.deleted || m.visible_at > now {
                    continue;
                }
                // Dead-letter check happens on the receive *after* the
                // max'th failed processing attempt.
                if let Some(dl) = &dl {
                    if m.receive_count >= dl.max_receives {
                        m.deleted = true;
                        dead_lettered.push(m.body.clone());
                        dlq_target = Some(dl.queue.clone());
                        continue;
                    }
                }
                m.receive_count += 1;
                m.generation += 1;
                m.visible_at = now + vt;
                out.push(ReceivedMessage {
                    id: m.id,
                    body: m.body.clone(),
                    receipt: Receipt {
                        queue: queue.to_owned(),
                        id: m.id,
                        generation: m.generation,
                    },
                    receive_count: m.receive_count,
                    enqueued_at: m.enqueued_at,
                });
            }
            q.messages.retain(|m| !m.deleted);
        }
        if let (Some(target), false) = (dlq_target, dead_lettered.is_empty()) {
            let n = dead_lettered.len() as u64;
            // Internal move: not billed to the customer, exempt from chaos.
            let _ = self.enqueue_now(&target, dead_lettered, false);
            self.handles.dead_lettered.add(&self.recorder, n);
        }
        Ok(out)
    }

    /// Delete one received message (one billed request).
    pub async fn delete(&self, caller: &Host, receipt: Receipt) -> Result<(), QueueError> {
        self.delete_batch(caller, vec![receipt]).await
    }

    /// Delete up to [`MAX_BATCH`] received messages as one billed request.
    pub async fn delete_batch(
        &self,
        _caller: &Host,
        receipts: Vec<Receipt>,
    ) -> Result<(), QueueError> {
        if receipts.len() > MAX_BATCH {
            return Err(QueueError::BatchTooLarge(receipts.len()));
        }
        let latency = self.sample(&self.profile.delete_latency);
        self.sim.sleep(latency).await;
        self.charge_request(1.0);
        let now = self.sim.now();
        let mut st = self.state.borrow_mut();
        // Track how many messages this batch actually removed: on a
        // partial failure the earlier receipts in the batch have already
        // deleted their messages, and the conservation ledger must see
        // them.
        let mut removed = 0u64;
        let mut failed: Option<QueueError> = None;
        for receipt in receipts {
            let q = match st.queues.get_mut(&receipt.queue) {
                Some(q) => q,
                None => {
                    failed = Some(QueueError::NoSuchQueue(receipt.queue.clone()));
                    break;
                }
            };
            let msg = q
                .messages
                .iter_mut()
                .find(|m| m.id == receipt.id && !m.deleted);
            // A receipt is only valid while its generation holds the
            // message invisible.
            match msg {
                Some(m) if m.generation == receipt.generation && m.visible_at > now => {
                    m.deleted = true;
                    removed += 1;
                }
                _ => {
                    failed = Some(QueueError::InvalidReceipt);
                    break;
                }
            }
        }
        drop(st);
        if removed > 0 {
            self.handles.deleted_messages.add(&self.recorder, removed);
        }
        match failed {
            Some(e) => Err(e),
            None => {
                self.handles.delete.incr(&self.recorder);
                Ok(())
            }
        }
    }

    /// Messages currently in the queue (visible or in flight).
    pub fn queue_len(&self, queue: &str) -> usize {
        self.state
            .borrow()
            .queues
            .get(queue)
            .map(|q| q.messages.iter().filter(|m| !m.deleted).count())
            .unwrap_or(0)
    }

    /// Messages still stored across *all* queues (visible or in
    /// flight), dead-letter queues included — the "remaining" term of
    /// the conservation invariant
    /// `enqueued == deleted + dead_lettered + remaining`.
    pub fn total_remaining(&self) -> u64 {
        self.state
            .borrow()
            .queues
            .values()
            .map(|q| q.messages.iter().filter(|m| !m.deleted).count() as u64)
            .sum()
    }

    // --- SNS-like topics -------------------------------------------------

    /// Create a topic (idempotent).
    pub fn create_topic(&self, name: &str) {
        self.state
            .borrow_mut()
            .topics
            .entry(name.to_owned())
            .or_default();
    }

    /// Subscribe `queue` to `topic`.
    pub fn subscribe_queue(&self, topic: &str, queue: &str) {
        let mut st = self.state.borrow_mut();
        let subs = st.topics.entry(topic.to_owned()).or_default();
        if !subs.iter().any(|q| q == queue) {
            subs.push(queue.to_owned());
        }
    }

    /// Publish to a topic: the message is fanned out to every subscribed
    /// queue. One billed request.
    pub async fn publish(
        &self,
        _caller: &Host,
        topic: &str,
        body: impl Into<Payload>,
    ) -> Result<usize, QueueError> {
        let body = body.into();
        let latency = self.sample(&self.profile.send_latency);
        self.sim.sleep(latency).await;
        let subs: Vec<String> = self
            .state
            .borrow()
            .topics
            .get(topic)
            .cloned()
            .unwrap_or_default();
        for q in &subs {
            let _ = self.enqueue_now(q, vec![body.clone()], true);
        }
        self.charge_request(1.0);
        self.handles.publish.incr(&self.recorder);
        Ok(subs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use faasim_net::{Fabric, NetProfile, NicConfig};
    use faasim_simcore::mbps;

    fn setup() -> (Sim, QueueService, Host, Ledger) {
        let sim = Sim::new(21);
        let recorder = Recorder::new();
        let fabric = Fabric::new(&sim, NetProfile::aws_2018().exact(), recorder.clone());
        let host = fabric.add_host(0, NicConfig::simple(mbps(10_000.0)));
        let ledger = Ledger::new();
        let svc = QueueService::new(
            &sim,
            QueueProfile::aws_2018().exact(),
            Rc::new(PriceBook::aws_2018()),
            ledger.clone(),
            recorder,
        );
        svc.create_queue("q", QueueConfig::default());
        (sim, svc, host, ledger)
    }

    #[test]
    fn handles_resolve_on_first_use() {
        let (sim, svc, host, ledger) = setup();
        let recorder = svc.recorder.clone();
        assert!(recorder.counter_names().is_empty());
        assert!(recorder.histogram_names().is_empty());
        assert!(ledger.breakdown().is_empty());
        sim.block_on(async move {
            svc.send(&host, "q", Bytes::from_static(b"m1"))
                .await
                .unwrap();
        });
        assert_eq!(recorder.counter_names(), ["queue.enqueued", "queue.send"]);
        assert!(recorder.histogram_names().is_empty());
        let items: Vec<_> = ledger
            .breakdown()
            .into_iter()
            .map(|row| (row.0, row.1))
            .collect();
        assert_eq!(items, [(Service::Queue, "requests".to_owned())]);
    }

    #[test]
    fn send_receive_delete_roundtrip() {
        let (sim, svc, host, _) = setup();
        sim.block_on(async move {
            svc.send(&host, "q", Bytes::from_static(b"m1")).await.unwrap();
            let got = svc
                .receive(&host, "q", 10, SimDuration::from_secs(1))
                .await
                .unwrap();
            assert_eq!(got.len(), 1);
            assert!(got[0].body.eq_bytes(b"m1"));
            svc.delete(&host, got[0].receipt.clone()).await.unwrap();
            assert_eq!(svc.queue_len("q"), 0);
        });
    }

    #[test]
    fn ready_batch_receive_delete_is_13ms() {
        // §3.1 CS-2: EC2 receive+delete of a ready 10-message batch = 13 ms.
        let (sim, svc, host, _) = setup();
        sim.block_on({
            let svc = svc.clone();
            async move {
                let bodies: Vec<Bytes> =
                    (0..10).map(|_| Bytes::from_static(b"doc")).collect();
                svc.send_batch(&host, "q", bodies).await.unwrap();
                let t0 = svc.sim.now();
                let got = svc
                    .receive(&host, "q", 10, SimDuration::from_secs(1))
                    .await
                    .unwrap();
                assert_eq!(got.len(), 10);
                let receipts = got.into_iter().map(|m| m.receipt).collect();
                svc.delete_batch(&host, receipts).await.unwrap();
                let ms = (svc.sim.now() - t0).as_secs_f64() * 1e3;
                assert!((ms - 13.0).abs() < 0.5, "receive+delete {ms} ms");
            }
        });
    }

    #[test]
    fn batch_cap_enforced() {
        let (sim, svc, host, _) = setup();
        sim.block_on(async move {
            let bodies: Vec<Bytes> = (0..11).map(|_| Bytes::new()).collect();
            assert!(matches!(
                svc.send_batch(&host, "q", bodies).await,
                Err(QueueError::BatchTooLarge(11))
            ));
            // receive() clamps silently to 10.
            for _ in 0..15 {
                svc.send(&host, "q", Bytes::new()).await.unwrap();
            }
            let got = svc
                .receive(&host, "q", 100, SimDuration::ZERO)
                .await
                .unwrap();
            assert_eq!(got.len(), 10);
        });
    }

    #[test]
    fn long_poll_wakes_on_arrival() {
        let (sim, svc, host, _) = setup();
        let svc2 = svc.clone();
        let host2 = host.clone();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_secs(2)).await;
            svc2.send(&host2, "q", Bytes::from_static(b"late")).await.unwrap();
        });
        let got = sim.block_on(async move {
            svc.receive(&host, "q", 10, SimDuration::from_secs(20)).await.unwrap()
        });
        assert_eq!(got.len(), 1);
        // Woke shortly after the 2 s arrival, not at the 20 s deadline.
        assert!(sim.now().as_secs_f64() < 3.0, "{}", sim.now());
    }

    #[test]
    fn long_poll_times_out_empty() {
        let (sim, svc, host, _) = setup();
        let got = sim.block_on(async move {
            svc.receive(&host, "q", 10, SimDuration::from_secs(5)).await.unwrap()
        });
        assert!(got.is_empty());
        assert!(sim.now().as_secs_f64() >= 5.0);
    }

    #[test]
    fn visibility_timeout_redelivers() {
        let (sim, svc, host, _) = setup();
        svc.create_queue(
            "q",
            QueueConfig {
                visibility_timeout: SimDuration::from_secs(10),
                dead_letter: None,
            },
        );
        sim.block_on({
            let svc = svc.clone();
            async move {
                svc.send(&host, "q", Bytes::from_static(b"m")).await.unwrap();
                let first = svc
                    .receive(&host, "q", 1, SimDuration::ZERO)
                    .await
                    .unwrap();
                assert_eq!(first.len(), 1);
                // Invisible while the first consumer holds it.
                let none = svc
                    .receive(&host, "q", 1, SimDuration::from_secs(1))
                    .await
                    .unwrap();
                assert!(none.is_empty());
                // After the visibility timeout it comes back...
                let again = svc
                    .receive(&host, "q", 1, SimDuration::from_secs(30))
                    .await
                    .unwrap();
                assert_eq!(again.len(), 1);
                assert_eq!(again[0].receive_count, 2);
                // ...and the stale first receipt can no longer delete it.
                assert_eq!(
                    svc.delete(&host, first[0].receipt.clone()).await,
                    Err(QueueError::InvalidReceipt)
                );
                svc.delete(&host, again[0].receipt.clone()).await.unwrap();
            }
        });
    }

    #[test]
    fn dead_letter_after_max_receives() {
        let (sim, svc, host, _) = setup();
        svc.create_queue("dlq", QueueConfig::default());
        svc.create_queue(
            "q",
            QueueConfig {
                visibility_timeout: SimDuration::from_millis(100),
                dead_letter: Some(DeadLetterConfig {
                    queue: "dlq".to_owned(),
                    max_receives: 2,
                }),
            },
        );
        sim.block_on({
            let svc = svc.clone();
            async move {
                svc.send(&host, "q", Bytes::from_static(b"poison")).await.unwrap();
                // Receive twice without deleting (processing "fails").
                for _ in 0..2 {
                    let got = svc
                        .receive(&host, "q", 1, SimDuration::from_secs(1))
                        .await
                        .unwrap();
                    assert_eq!(got.len(), 1);
                    svc.sim.sleep(SimDuration::from_millis(200)).await;
                }
                // Third receive dead-letters instead of delivering.
                let got = svc
                    .receive(&host, "q", 1, SimDuration::ZERO)
                    .await
                    .unwrap();
                assert!(got.is_empty());
                assert_eq!(svc.queue_len("q"), 0);
                assert_eq!(svc.queue_len("dlq"), 1);
            }
        });
    }

    #[test]
    fn billing_counts_requests_not_messages() {
        let (sim, svc, host, ledger) = setup();
        sim.block_on(async move {
            let bodies: Vec<Bytes> = (0..10).map(|_| Bytes::new()).collect();
            svc.send_batch(&host, "q", bodies).await.unwrap(); // 1 request
            let got = svc
                .receive(&host, "q", 10, SimDuration::ZERO)
                .await
                .unwrap(); // 1 request
            let receipts = got.into_iter().map(|m| m.receipt).collect();
            svc.delete_batch(&host, receipts).await.unwrap(); // 1 request
        });
        assert_eq!(ledger.item_quantity(Service::Queue, "requests"), 3.0);
        let expect = 3.0 * 0.40 / 1e6;
        assert!((ledger.total() - expect).abs() < 1e-12);
    }

    #[test]
    fn unknown_queue_errors() {
        let (sim, svc, host, _) = setup();
        sim.block_on(async move {
            assert!(matches!(
                svc.send(&host, "ghost", Bytes::new()).await,
                Err(QueueError::NoSuchQueue(_))
            ));
            assert!(matches!(
                svc.receive(&host, "ghost", 1, SimDuration::ZERO).await,
                Err(QueueError::NoSuchQueue(_))
            ));
        });
    }

    #[test]
    fn topic_fanout_reaches_all_queues() {
        let (sim, svc, host, _) = setup();
        svc.create_queue("a", QueueConfig::default());
        svc.create_queue("b", QueueConfig::default());
        svc.create_topic("t");
        svc.subscribe_queue("t", "a");
        svc.subscribe_queue("t", "b");
        svc.subscribe_queue("t", "b"); // duplicate ignored
        let n = sim.block_on({
            let svc = svc.clone();
            async move {
                svc.publish(&host, "t", Bytes::from_static(b"announce"))
                    .await
                    .unwrap()
            }
        });
        assert_eq!(n, 2);
        assert_eq!(svc.queue_len("a"), 1);
        assert_eq!(svc.queue_len("b"), 1);
    }

    #[test]
    fn fifo_order_within_queue() {
        let (sim, svc, host, _) = setup();
        let got = sim.block_on(async move {
            for i in 0..5u8 {
                svc.send(&host, "q", Bytes::from(vec![i])).await.unwrap();
            }
            svc.receive(&host, "q", 10, SimDuration::ZERO).await.unwrap()
        });
        let order: Vec<u8> = got.iter().map(|m| m.body.bytes()[0]).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }
}
