//! # faasim-kv
//!
//! A DynamoDB-like key-value table service: low-latency item get/put,
//! conditional writes (the primitive the blackboard transport and the
//! leader-election case study are built on), prefix scans, optional
//! eventually consistent reads, item-size limits, and per-request pricing.
//!
//! Calibration: 5.5 ms mean per operation → Table 1's 11 ms write+read for
//! 1 KB from both Lambda and EC2 (the paper observes the latency lives in
//! the storage service, not in the caller).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;
use std::rc::Rc;

use faasim_net::Host;
use faasim_payload::Payload;
use faasim_pricing::{LazyItem, Ledger, PriceBook, Service};
use faasim_simcore::{
    LatencyModel, LazyCounter, LazyHist, Recorder, Sim, SimDuration, SimRng, SimTime,
};

/// DynamoDB's item size ceiling (400 KB), enforced here too.
pub const MAX_ITEM_BYTES: usize = 400 * 1024;

/// Read consistency level.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Consistency {
    /// Linearizable read of the latest committed write.
    #[default]
    Strong,
    /// May observe a version as stale as the profile's replication lag.
    Eventual,
}

/// Errors returned by table operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvError {
    /// The table does not exist.
    NoSuchTable(String),
    /// The key does not exist.
    NoSuchKey(String),
    /// A conditional write's precondition failed.
    ConditionFailed,
    /// The item exceeds [`MAX_ITEM_BYTES`].
    ItemTooLarge(usize),
    /// The service throttled this request (transient; retryable). Only
    /// produced when chaos injection is enabled via [`KvStore::set_faults`].
    Throttled,
}

impl KvError {
    /// Whether a retry of the same request may succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, KvError::Throttled)
    }
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            KvError::NoSuchKey(k) => write!(f, "no such key: {k}"),
            KvError::ConditionFailed => write!(f, "condition failed"),
            KvError::ItemTooLarge(n) => write!(f, "item too large: {n} bytes"),
            KvError::Throttled => write!(f, "request throttled"),
        }
    }
}

impl std::error::Error for KvError {}

/// Precondition for [`KvStore::put_if`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Condition {
    /// Succeed only if the key does not currently exist.
    NotExists,
    /// Succeed only if the key exists with exactly this version.
    VersionIs(u64),
}

/// Performance profile of the table service.
#[derive(Clone, Debug)]
pub struct KvProfile {
    /// Per-operation latency.
    pub op_latency: LatencyModel,
    /// Replication lag observed by [`Consistency::Eventual`] reads.
    pub eventual_lag: LatencyModel,
}

impl KvProfile {
    /// Calibrated to Table 1 (11 ms write+read for 1 KB).
    pub fn aws_2018() -> KvProfile {
        KvProfile {
            op_latency: LatencyModel::LogNormal {
                mean: SimDuration::from_micros(5_500),
                cv: 0.15,
                floor: SimDuration::from_millis(1),
            },
            eventual_lag: LatencyModel::LogNormal {
                mean: SimDuration::from_millis(100),
                cv: 0.5,
                floor: SimDuration::from_millis(5),
            },
        }
    }

    /// Collapse latencies to their means for exact reproduction runs.
    pub fn exact(mut self) -> KvProfile {
        self.op_latency = self.op_latency.to_constant();
        self.eventual_lag = self.eventual_lag.to_constant();
        self
    }
}

/// An item returned by reads: value plus its monotonically increasing
/// version (usable with [`Condition::VersionIs`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Item {
    /// Item payload.
    pub value: Payload,
    /// Version of this item; bumps on every successful write.
    pub version: u64,
}

#[derive(Clone)]
struct StoredItem {
    value: Payload,
    version: u64,
    committed_at: SimTime,
    prev: Option<(Payload, u64)>,
}

#[derive(Default)]
struct Table {
    items: BTreeMap<String, StoredItem>,
    next_version: u64,
}

/// Deterministic fault knobs for the table service. Zero by default; no
/// RNG draws are consumed while every probability is zero, so enabling
/// chaos never perturbs a fault-free run at the same seed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KvFaults {
    /// Probability that a request is throttled ([`KvError::Throttled`])
    /// after paying its round-trip latency.
    pub throttle_prob: f64,
}

struct KvState {
    tables: BTreeMap<String, Table>,
    rng: SimRng,
    faults: KvFaults,
}

/// A table operation, as the latency histograms tell them apart (both
/// kinds of write are a `Put`).
#[derive(Copy, Clone)]
enum Op {
    Put,
    Get,
    Delete,
    Scan,
}

/// Recorder and ledger handles of the per-request path, resolved on
/// first use (see [`LazyCounter`]): a request indexes its series instead
/// of hashing their names.
struct Handles {
    /// Indexed by [`Op`].
    latency: [LazyHist; 4],
    throttled: LazyCounter,
    reads: LazyCounter,
    writes: LazyCounter,
    bill_reads: LazyItem,
    bill_writes: LazyItem,
}

/// The key-value service handle. Cheap to clone.
#[derive(Clone)]
pub struct KvStore {
    sim: Sim,
    profile: Rc<KvProfile>,
    prices: Rc<PriceBook>,
    ledger: Ledger,
    recorder: Recorder,
    handles: Rc<Handles>,
    state: Rc<RefCell<KvState>>,
}

impl KvStore {
    /// Create the service.
    pub fn new(
        sim: &Sim,
        profile: KvProfile,
        prices: Rc<PriceBook>,
        ledger: Ledger,
        recorder: Recorder,
    ) -> KvStore {
        KvStore {
            sim: sim.clone(),
            profile: Rc::new(profile),
            prices,
            ledger,
            recorder,
            handles: Rc::new(Handles {
                latency: [
                    LazyHist::new("kv.put.latency"),
                    LazyHist::new("kv.get.latency"),
                    LazyHist::new("kv.delete.latency"),
                    LazyHist::new("kv.scan.latency"),
                ],
                throttled: LazyCounter::new("kv.throttled"),
                reads: LazyCounter::new("kv.reads"),
                writes: LazyCounter::new("kv.writes"),
                bill_reads: LazyItem::new(Service::Kv, "read-requests"),
                bill_writes: LazyItem::new(Service::Kv, "write-requests"),
            }),
            state: Rc::new(RefCell::new(KvState {
                tables: BTreeMap::new(),
                rng: sim.rng("kv.store"),
                faults: KvFaults::default(),
            })),
        }
    }

    /// Create a table (idempotent).
    pub fn create_table(&self, name: &str) {
        self.state
            .borrow_mut()
            .tables
            .entry(name.to_owned())
            .or_default();
    }

    /// Install chaos knobs; pass `KvFaults::default()` to disable.
    pub fn set_faults(&self, faults: KvFaults) {
        self.state.borrow_mut().faults = faults;
    }

    async fn pay_latency(&self, op: Op) {
        let latency = {
            let mut st = self.state.borrow_mut();
            self.profile.op_latency.sample(&mut st.rng)
        };
        self.sim.sleep(latency).await;
        self.handles.latency[op as usize].record_duration(&self.recorder, latency);
    }

    /// Chaos gate at the head of every operation: a throttled request
    /// pays a full round trip before the error reaches the caller (like
    /// a real HTTP 400 ProvisionedThroughputExceededException), but is
    /// not billed.
    async fn chaos_gate(&self, op: Op) -> Result<(), KvError> {
        let throttled = {
            let mut st = self.state.borrow_mut();
            let p = st.faults.throttle_prob;
            p > 0.0 && st.rng.chance(p)
        };
        if throttled {
            self.pay_latency(op).await;
            self.handles.throttled.incr(&self.recorder);
            return Err(KvError::Throttled);
        }
        Ok(())
    }

    fn charge_read(&self, n: f64) {
        let h = &self.handles;
        h.bill_reads
            .charge(&self.ledger, n, n * self.prices.kv_read_per_request);
        h.reads.add(&self.recorder, n as u64);
    }

    fn charge_write(&self, n: f64) {
        let h = &self.handles;
        h.bill_writes
            .charge(&self.ledger, n, n * self.prices.kv_write_per_request);
        h.writes.add(&self.recorder, n as u64);
    }

    /// Unconditional write. Returns the new version.
    pub async fn put(
        &self,
        _caller: &Host,
        table: &str,
        key: &str,
        value: impl Into<Payload>,
    ) -> Result<u64, KvError> {
        self.write(table, key, value.into(), None).await
    }

    /// Conditional write (compare-and-set). Returns the new version, or
    /// [`KvError::ConditionFailed`] without modifying the item.
    pub async fn put_if(
        &self,
        _caller: &Host,
        table: &str,
        key: &str,
        value: impl Into<Payload>,
        cond: Condition,
    ) -> Result<u64, KvError> {
        self.write(table, key, value.into(), Some(cond)).await
    }

    /// Both writes: one request that commits `value` unless `cond` is
    /// given and does not hold.
    async fn write(
        &self,
        table: &str,
        key: &str,
        value: Payload,
        cond: Option<Condition>,
    ) -> Result<u64, KvError> {
        if value.len() > MAX_ITEM_BYTES {
            return Err(KvError::ItemTooLarge(value.len()));
        }
        self.chaos_gate(Op::Put).await?;
        self.pay_latency(Op::Put).await;
        let now = self.sim.now();
        let result = {
            let mut st = self.state.borrow_mut();
            let t = st
                .tables
                .get_mut(table)
                .ok_or_else(|| KvError::NoSuchTable(table.to_owned()))?;
            let current = t.items.get(key);
            let ok = match cond {
                None => true,
                Some(Condition::NotExists) => current.is_none(),
                Some(Condition::VersionIs(v)) => current.is_some_and(|item| item.version == v),
            };
            if !ok {
                Err(KvError::ConditionFailed)
            } else {
                let prev = current.map(|old| (old.value.clone(), old.version));
                t.next_version += 1;
                let version = t.next_version;
                t.items.insert(
                    key.to_owned(),
                    StoredItem {
                        value,
                        version,
                        committed_at: now,
                        prev,
                    },
                );
                Ok(version)
            }
        };
        // Failed conditional writes still consume (and bill) a request.
        self.charge_write(1.0);
        result
    }

    /// Read one item.
    pub async fn get(
        &self,
        _caller: &Host,
        table: &str,
        key: &str,
        consistency: Consistency,
    ) -> Result<Item, KvError> {
        self.chaos_gate(Op::Get).await?;
        self.pay_latency(Op::Get).await;
        let lag = match consistency {
            Consistency::Strong => SimDuration::ZERO,
            Consistency::Eventual => {
                let mut st = self.state.borrow_mut();
                self.profile.eventual_lag.sample(&mut st.rng)
            }
        };
        let horizon = self.sim.now().duration_since(SimTime::ZERO);
        let cutoff = SimTime::ZERO + horizon.saturating_sub(lag);
        let out = {
            let st = self.state.borrow();
            let t = st
                .tables
                .get(table)
                .ok_or_else(|| KvError::NoSuchTable(table.to_owned()))?;
            let item = t
                .items
                .get(key)
                .ok_or_else(|| KvError::NoSuchKey(key.to_owned()))?;
            if item.committed_at <= cutoff {
                Item {
                    value: item.value.clone(),
                    version: item.version,
                }
            } else if let Some((value, version)) = &item.prev {
                // Replication lag: serve the previous committed version.
                Item {
                    value: value.clone(),
                    version: *version,
                }
            } else {
                // Item newer than the replica horizon with no prior
                // version: an eventual read misses it entirely.
                return Err(KvError::NoSuchKey(key.to_owned()));
            }
        };
        self.charge_read(1.0);
        Ok(out)
    }

    /// Delete an item (idempotent).
    pub async fn delete(&self, _caller: &Host, table: &str, key: &str) -> Result<(), KvError> {
        self.chaos_gate(Op::Delete).await?;
        self.pay_latency(Op::Delete).await;
        {
            let mut st = self.state.borrow_mut();
            let t = st
                .tables
                .get_mut(table)
                .ok_or_else(|| KvError::NoSuchTable(table.to_owned()))?;
            t.items.remove(key);
        }
        self.charge_write(1.0);
        Ok(())
    }

    /// Scan all items whose key starts with `prefix`, strongly consistent.
    /// Bills one read request per returned item (minimum one), roughly
    /// matching DynamoDB's capacity-unit accounting for small items.
    pub async fn scan_prefix(
        &self,
        _caller: &Host,
        table: &str,
        prefix: &str,
    ) -> Result<Vec<(String, Item)>, KvError> {
        self.chaos_gate(Op::Scan).await?;
        self.pay_latency(Op::Scan).await;
        let out: Vec<(String, Item)> = {
            let st = self.state.borrow();
            let t = st
                .tables
                .get(table)
                .ok_or_else(|| KvError::NoSuchTable(table.to_owned()))?;
            t.items
                .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
                .take_while(|(k, _)| k.starts_with(prefix))
                .map(|(k, item)| {
                    (
                        k.clone(),
                        Item {
                            value: item.value.clone(),
                            version: item.version,
                        },
                    )
                })
                .collect()
        };
        self.charge_read(out.len().max(1) as f64);
        Ok(out)
    }

    /// Number of items in a table (0 for unknown tables).
    pub fn table_len(&self, table: &str) -> usize {
        self.state
            .borrow()
            .tables
            .get(table)
            .map(|t| t.items.len())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasim_net::{Fabric, NetProfile, NicConfig};
    use faasim_simcore::mbps;

    fn setup() -> (Sim, KvStore, Host, Ledger) {
        let sim = Sim::new(11);
        let recorder = Recorder::new();
        let fabric = Fabric::new(&sim, NetProfile::aws_2018().exact(), recorder.clone());
        let host = fabric.add_host(0, NicConfig::simple(mbps(10_000.0)));
        let ledger = Ledger::new();
        let store = KvStore::new(
            &sim,
            KvProfile::aws_2018().exact(),
            Rc::new(PriceBook::aws_2018()),
            ledger.clone(),
            recorder,
        );
        store.create_table("t");
        (sim, store, host, ledger)
    }

    #[test]
    fn handles_resolve_on_first_use() {
        let (sim, kv, host, ledger) = setup();
        let recorder = kv.recorder.clone();
        assert!(recorder.counter_names().is_empty());
        assert!(recorder.histogram_names().is_empty());
        assert!(ledger.breakdown().is_empty());
        sim.block_on({
            let kv = kv.clone();
            async move {
                kv.put(&host, "t", "k", Payload::from_static(b"a"))
                    .await
                    .unwrap();
            }
        });
        assert_eq!(recorder.counter_names(), ["kv.writes"]);
        assert_eq!(recorder.histogram_names(), ["kv.put.latency"]);
        let items: Vec<_> = ledger
            .breakdown()
            .into_iter()
            .map(|row| (row.0, row.1))
            .collect();
        assert_eq!(items, [(Service::Kv, "write-requests".to_owned())]);
    }

    #[test]
    fn put_get_roundtrip_and_version() {
        let (sim, kv, host, _) = setup();
        sim.block_on(async move {
            let v1 = kv
                .put(&host, "t", "k", Payload::from_static(b"a"))
                .await
                .unwrap();
            let item = kv.get(&host, "t", "k", Consistency::Strong).await.unwrap();
            assert!(item.value.eq_bytes(b"a"));
            assert_eq!(item.version, v1);
            let v2 = kv
                .put(&host, "t", "k", Payload::from_static(b"b"))
                .await
                .unwrap();
            assert!(v2 > v1);
        });
    }

    #[test]
    fn one_kb_write_read_matches_table1() {
        // Table 1: 11 ms write+read for DynamoDB.
        let (sim, kv, host, _) = setup();
        sim.block_on(async move {
            let data = Payload::from(vec![0u8; 1024]);
            kv.put(&host, "t", "k", data).await.unwrap();
            kv.get(&host, "t", "k", Consistency::Strong).await.unwrap();
        });
        let ms = sim.now().as_secs_f64() * 1e3;
        assert!((ms - 11.0).abs() < 0.5, "write+read took {ms} ms");
    }

    #[test]
    fn conditional_create_races_one_winner() {
        let (sim, kv, host, _) = setup();
        sim.block_on(async move {
            let a = kv
                .put_if(
                    &host,
                    "t",
                    "leader",
                    Payload::from_static(b"n1"),
                    Condition::NotExists,
                )
                .await;
            let b = kv
                .put_if(
                    &host,
                    "t",
                    "leader",
                    Payload::from_static(b"n2"),
                    Condition::NotExists,
                )
                .await;
            assert!(a.is_ok());
            assert_eq!(b.unwrap_err(), KvError::ConditionFailed);
            let item = kv
                .get(&host, "t", "leader", Consistency::Strong)
                .await
                .unwrap();
            assert!(item.value.eq_bytes(b"n1"));
        });
    }

    #[test]
    fn version_cas_detects_interleaving() {
        let (sim, kv, host, _) = setup();
        sim.block_on(async move {
            let v1 = kv
                .put(&host, "t", "k", Payload::from_static(b"a"))
                .await
                .unwrap();
            // Writer B sneaks in.
            kv.put(&host, "t", "k", Payload::from_static(b"b"))
                .await
                .unwrap();
            // Writer A's CAS on the old version must fail.
            let res = kv
                .put_if(
                    &host,
                    "t",
                    "k",
                    Payload::from_static(b"c"),
                    Condition::VersionIs(v1),
                )
                .await;
            assert_eq!(res.unwrap_err(), KvError::ConditionFailed);
            let cur = kv.get(&host, "t", "k", Consistency::Strong).await.unwrap();
            assert!(cur.value.eq_bytes(b"b"));
        });
    }

    #[test]
    fn item_size_limit_enforced() {
        let (sim, kv, host, _) = setup();
        sim.block_on(async move {
            let big = Payload::from(vec![0u8; MAX_ITEM_BYTES + 1]);
            assert!(matches!(
                kv.put(&host, "t", "k", big.clone()).await,
                Err(KvError::ItemTooLarge(_))
            ));
            assert!(matches!(
                kv.put_if(&host, "t", "k", big, Condition::NotExists).await,
                Err(KvError::ItemTooLarge(_))
            ));
        });
    }

    #[test]
    fn eventual_reads_can_be_stale() {
        let sim = Sim::new(12);
        let recorder = Recorder::new();
        let fabric = Fabric::new(&sim, NetProfile::aws_2018().exact(), recorder.clone());
        let host = fabric.add_host(0, NicConfig::simple(mbps(10_000.0)));
        let mut profile = KvProfile::aws_2018().exact();
        profile.eventual_lag = LatencyModel::Constant(SimDuration::from_secs(1));
        let kv = KvStore::new(
            &sim,
            profile,
            Rc::new(PriceBook::aws_2018()),
            Ledger::new(),
            recorder,
        );
        kv.create_table("t");
        sim.block_on({
            let kv = kv.clone();
            async move {
                kv.put(&host, "t", "k", Payload::from_static(b"old"))
                    .await
                    .unwrap();
                kv.sim.sleep(SimDuration::from_secs(2)).await;
                kv.put(&host, "t", "k", Payload::from_static(b"new"))
                    .await
                    .unwrap();
                // Within the replication lag, an eventual read sees "old"...
                let stale = kv
                    .get(&host, "t", "k", Consistency::Eventual)
                    .await
                    .unwrap();
                assert!(stale.value.eq_bytes(b"old"));
                // ...while a strong read sees "new".
                let strong = kv.get(&host, "t", "k", Consistency::Strong).await.unwrap();
                assert!(strong.value.eq_bytes(b"new"));
                // And once the lag passes, eventual catches up.
                kv.sim.sleep(SimDuration::from_secs(2)).await;
                let fresh = kv
                    .get(&host, "t", "k", Consistency::Eventual)
                    .await
                    .unwrap();
                assert!(fresh.value.eq_bytes(b"new"));
            }
        });
    }

    #[test]
    fn scan_prefix_returns_matching_sorted() {
        let (sim, kv, host, _) = setup();
        let keys = sim.block_on(async move {
            for k in ["inbox/3/b", "inbox/3/a", "inbox/4/x", "other"] {
                kv.put(&host, "t", k, Payload::from_static(b"m"))
                    .await
                    .unwrap();
            }
            kv.scan_prefix(&host, "t", "inbox/3/")
                .await
                .unwrap()
                .into_iter()
                .map(|(k, _)| k)
                .collect::<Vec<_>>()
        });
        assert_eq!(keys, vec!["inbox/3/a".to_owned(), "inbox/3/b".to_owned()]);
    }

    #[test]
    fn delete_then_get_missing() {
        let (sim, kv, host, _) = setup();
        sim.block_on(async move {
            kv.put(&host, "t", "k", Payload::from_static(b"x"))
                .await
                .unwrap();
            kv.delete(&host, "t", "k").await.unwrap();
            assert!(matches!(
                kv.get(&host, "t", "k", Consistency::Strong).await,
                Err(KvError::NoSuchKey(_))
            ));
            assert_eq!(kv.table_len("t"), 0);
        });
    }

    #[test]
    fn billing_counts_reads_writes_and_failed_cas() {
        let (sim, kv, host, ledger) = setup();
        sim.block_on(async move {
            kv.put(&host, "t", "k", Payload::from_static(b"x"))
                .await
                .unwrap();
            kv.get(&host, "t", "k", Consistency::Strong).await.unwrap();
            let _ = kv
                .put_if(
                    &host,
                    "t",
                    "k",
                    Payload::from_static(b"y"),
                    Condition::NotExists,
                )
                .await; // fails, still billed
        });
        assert_eq!(ledger.item_quantity(Service::Kv, "write-requests"), 2.0);
        assert_eq!(ledger.item_quantity(Service::Kv, "read-requests"), 1.0);
    }

    #[test]
    fn scan_bills_per_item() {
        let (sim, kv, host, ledger) = setup();
        sim.block_on(async move {
            for i in 0..5 {
                kv.put(&host, "t", &format!("p/{i}"), Payload::from_static(b"v"))
                    .await
                    .unwrap();
            }
            kv.scan_prefix(&host, "t", "p/").await.unwrap();
            // Empty scan still bills one request.
            kv.scan_prefix(&host, "t", "zzz/").await.unwrap();
        });
        assert_eq!(ledger.item_quantity(Service::Kv, "read-requests"), 6.0);
    }
}
