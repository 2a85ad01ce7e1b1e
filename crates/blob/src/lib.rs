//! # faasim-blob
//!
//! An S3-like autoscaling object store: flat buckets of immutable objects,
//! high per-request latency, per-connection throughput caps, optional
//! read-after-write *inconsistency* (the weak replica consistency §3 of
//! the paper calls out), and per-request pricing.
//!
//! Calibration (see `BlobProfile::aws_2018`):
//! - 53 ms mean per operation → Table 1's 108 ms Lambda↔S3 write+read.
//! - 41.04 MB/s per connection → §3.1's 100 MB training batch in 2.49 s
//!   end-to-end (53 ms request + 2.437 s streaming).

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
    mbytes_per_sec, Bps, LatencyModel, LazyCounter, LazyHist, Recorder, Sim, SimDuration, SimRng,
    SimTime,
};

/// Errors returned by blob operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlobError {
    /// The bucket does not exist.
    NoSuchBucket(String),
    /// The key does not exist (or is not yet visible to this reader).
    NoSuchKey(String),
    /// The service is momentarily unavailable (S3 503 SlowDown; transient,
    /// retryable). Only produced when chaos injection is enabled via
    /// [`BlobStore::set_faults`].
    Unavailable,
}

impl BlobError {
    /// Whether a retry of the same request may succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, BlobError::Unavailable)
    }
}

impl fmt::Display for BlobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlobError::NoSuchBucket(b) => write!(f, "no such bucket: {b}"),
            BlobError::NoSuchKey(k) => write!(f, "no such key: {k}"),
            BlobError::Unavailable => write!(f, "service unavailable (503 SlowDown)"),
        }
    }
}

impl std::error::Error for BlobError {}

/// Performance/consistency profile of the store.
#[derive(Clone, Debug)]
pub struct BlobProfile {
    /// Per-operation request latency (control-plane + first byte).
    pub op_latency: LatencyModel,
    /// Per-connection data throughput, bits/second.
    pub per_conn_bandwidth: Bps,
    /// When `Some`, a newly written object only becomes visible to readers
    /// after this lag (S3's 2018-era eventual consistency for overwrite
    /// and list operations). `None` = read-after-write everywhere.
    pub eventual_read_lag: Option<LatencyModel>,
}

impl BlobProfile {
    /// Calibrated to the paper's Table 1 and §3.1 case studies.
    pub fn aws_2018() -> BlobProfile {
        BlobProfile {
            op_latency: LatencyModel::LogNormal {
                mean: SimDuration::from_micros(53_000),
                cv: 0.15,
                floor: SimDuration::from_millis(10),
            },
            per_conn_bandwidth: mbytes_per_sec(41.04),
            eventual_read_lag: None,
        }
    }

    /// Same means, zero variance — for exact table reproduction.
    pub fn exact(mut self) -> BlobProfile {
        self.op_latency = self.op_latency.to_constant();
        self.eventual_read_lag = self.eventual_read_lag.map(|m| m.to_constant());
        self
    }
}

#[derive(Clone)]
struct ObjectVersion {
    data: Payload,
    visible_at: SimTime,
    tombstone: bool,
}

/// What a reader sees of an object at `now`: the latest version visible
/// by then, unless that version is a tombstone.
fn visible(versions: &[ObjectVersion], now: SimTime) -> Option<&Payload> {
    let latest = versions.iter().rev().find(|v| v.visible_at <= now)?;
    (!latest.tombstone).then_some(&latest.data)
}

/// A bucket: each key's versions, oldest first.
type Bucket = BTreeMap<String, Vec<ObjectVersion>>;

/// Deterministic fault knobs for the object store. Zero by default; no
/// RNG draws are consumed while every probability is zero, so enabling
/// chaos never perturbs a fault-free run at the same seed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BlobFaults {
    /// Probability that a request fails with [`BlobError::Unavailable`]
    /// after paying its request latency (but before moving any data).
    pub unavailable_prob: f64,
}

struct StoreState {
    buckets: BTreeMap<String, Bucket>,
    rng: SimRng,
    faults: BlobFaults,
}

/// A store operation, as the recorder tells them apart.
#[derive(Copy, Clone)]
enum Op {
    Put,
    Get,
    GetRange,
    Delete,
    List,
}

/// Recorder and ledger handles of the per-request path, resolved on
/// first use (see [`LazyCounter`]): a request indexes its series instead
/// of hashing their names.
struct Handles {
    /// Completed operations, indexed by [`Op`].
    count: [LazyCounter; 5],
    /// Request latency, indexed by [`Op`].
    latency: [LazyHist; 5],
    unavailable: LazyCounter,
    bytes_in: LazyCounter,
    bytes_out: LazyCounter,
    bill_put: LazyItem,
    bill_get: LazyItem,
}

/// The object store service handle. Cheap to clone.
#[derive(Clone)]
pub struct BlobStore {
    sim: Sim,
    profile: Rc<BlobProfile>,
    prices: Rc<PriceBook>,
    ledger: Ledger,
    recorder: Recorder,
    handles: Rc<Handles>,
    state: Rc<RefCell<StoreState>>,
}

impl BlobStore {
    /// Create the service.
    pub fn new(
        sim: &Sim,
        profile: BlobProfile,
        prices: Rc<PriceBook>,
        ledger: Ledger,
        recorder: Recorder,
    ) -> BlobStore {
        BlobStore {
            sim: sim.clone(),
            profile: Rc::new(profile),
            prices,
            ledger,
            recorder,
            handles: Rc::new(Handles {
                count: [
                    LazyCounter::new("blob.put"),
                    LazyCounter::new("blob.get"),
                    LazyCounter::new("blob.get_range"),
                    LazyCounter::new("blob.delete"),
                    LazyCounter::new("blob.list"),
                ],
                latency: [
                    LazyHist::new("blob.put.latency"),
                    LazyHist::new("blob.get.latency"),
                    LazyHist::new("blob.get_range.latency"),
                    LazyHist::new("blob.delete.latency"),
                    LazyHist::new("blob.list.latency"),
                ],
                unavailable: LazyCounter::new("blob.unavailable"),
                bytes_in: LazyCounter::new("blob.bytes_in"),
                bytes_out: LazyCounter::new("blob.bytes_out"),
                bill_put: LazyItem::new(Service::Blob, "put-requests"),
                bill_get: LazyItem::new(Service::Blob, "get-requests"),
            }),
            state: Rc::new(RefCell::new(StoreState {
                buckets: BTreeMap::new(),
                rng: sim.rng("blob.store"),
                faults: BlobFaults::default(),
            })),
        }
    }

    /// Create a bucket (idempotent).
    pub fn create_bucket(&self, name: &str) {
        self.state
            .borrow_mut()
            .buckets
            .entry(name.to_owned())
            .or_default();
    }

    /// Install chaos knobs; pass `BlobFaults::default()` to disable.
    pub fn set_faults(&self, faults: BlobFaults) {
        self.state.borrow_mut().faults = faults;
    }

    fn sample_latency(&self) -> SimDuration {
        let mut st = self.state.borrow_mut();
        self.profile.op_latency.sample(&mut st.rng)
    }

    /// Chaos gate at the head of every operation: an unavailable request
    /// pays its request latency before the 503 reaches the caller, and is
    /// not billed (S3 does not charge for 5xx responses).
    async fn chaos_gate(&self, op: Op) -> Result<(), BlobError> {
        let unavailable = {
            let mut st = self.state.borrow_mut();
            let p = st.faults.unavailable_prob;
            p > 0.0 && st.rng.chance(p)
        };
        if unavailable {
            let latency = self.sample_latency();
            self.sim.sleep(latency).await;
            let h = &self.handles;
            h.unavailable.incr(&self.recorder);
            h.latency[op as usize].record_duration(&self.recorder, latency);
            return Err(BlobError::Unavailable);
        }
        Ok(())
    }

    /// Bill one request at the PUT tier (S3 bills DELETE and LIST there
    /// too) and count the operation.
    fn settle_put_tier(&self, op: Op) {
        self.handles
            .bill_put
            .charge(&self.ledger, 1.0, self.prices.blob_put_per_request);
        self.handles.count[op as usize].incr(&self.recorder);
    }

    /// Bill one GET of `bytes` that began at `t0` and count it under `op`.
    fn settle_get(&self, op: Op, bytes: u64, t0: SimTime) {
        let h = &self.handles;
        h.bill_get
            .charge(&self.ledger, 1.0, self.prices.blob_get_per_request);
        h.count[op as usize].incr(&self.recorder);
        h.bytes_out.add(&self.recorder, bytes);
        h.latency[op as usize].record_duration(&self.recorder, self.sim.now() - t0);
    }

    fn sample_visibility(&self, now: SimTime) -> SimTime {
        match &self.profile.eventual_read_lag {
            None => now,
            Some(model) => {
                let mut st = self.state.borrow_mut();
                now + model.sample(&mut st.rng)
            }
        }
    }

    /// Store an object. The returned future completes when the last byte
    /// is acknowledged; the data has then committed, though under an
    /// eventual-consistency profile readers may briefly still see the old
    /// version.
    pub async fn put(
        &self,
        caller: &Host,
        bucket: &str,
        key: &str,
        data: impl Into<Payload>,
    ) -> Result<(), BlobError> {
        let data = data.into();
        self.chaos_gate(Op::Put).await?;
        let t0 = self.sim.now();
        let latency = self.sample_latency();
        self.sim.sleep(latency).await;
        caller
            .nic_transfer_capped(data.len() as u64, self.profile.per_conn_bandwidth)
            .await;
        let now = self.sim.now();
        let visible_at = self.sample_visibility(now);
        let size = data.len() as u64;
        {
            let mut st = self.state.borrow_mut();
            let b = st
                .buckets
                .get_mut(bucket)
                .ok_or_else(|| BlobError::NoSuchBucket(bucket.to_owned()))?;
            let versions = b.entry(key.to_owned()).or_default();
            // Keep the last already-visible version (for stale reads) plus
            // the new one.
            versions.retain(|v| v.visible_at <= now);
            if versions.len() > 1 {
                let last = versions.pop().expect("nonempty");
                versions.clear();
                versions.push(last);
            }
            versions.push(ObjectVersion {
                data,
                visible_at,
                tombstone: false,
            });
        }
        self.settle_put_tier(Op::Put);
        let h = &self.handles;
        h.bytes_in.add(&self.recorder, size);
        h.latency[Op::Put as usize].record_duration(&self.recorder, self.sim.now() - t0);
        Ok(())
    }

    /// Fetch an object. Completes after the full body has streamed through
    /// the caller's NIC at the per-connection cap.
    pub async fn get(&self, caller: &Host, bucket: &str, key: &str) -> Result<Payload, BlobError> {
        self.chaos_gate(Op::Get).await?;
        let t0 = self.sim.now();
        let latency = self.sample_latency();
        self.sim.sleep(latency).await;
        let data = self.read_visible(bucket, key)?;
        caller
            .nic_transfer_capped(data.len() as u64, self.profile.per_conn_bandwidth)
            .await;
        self.settle_get(Op::Get, data.len() as u64, t0);
        Ok(data)
    }

    /// Fetch a byte range of an object (an HTTP `Range` GET). The range
    /// is clamped to the object's length; only the sliced bytes move
    /// through the caller's NIC, so transfer time and metered bytes are
    /// proportional to the range, not the object. Billed as a GET
    /// request like any other read. This is what lets partition-parallel
    /// scanners fetch their slices independently instead of dragging
    /// whole objects.
    pub async fn get_range(
        &self,
        caller: &Host,
        bucket: &str,
        key: &str,
        range: std::ops::Range<u64>,
    ) -> Result<Payload, BlobError> {
        self.chaos_gate(Op::GetRange).await?;
        let t0 = self.sim.now();
        let latency = self.sample_latency();
        self.sim.sleep(latency).await;
        let data = self.read_visible(bucket, key)?;
        let len = data.len() as u64;
        let (start, end) = (range.start.min(len), range.end.min(len));
        let slice = if start >= end {
            Payload::new()
        } else {
            data.slice(start as usize..end as usize)
        };
        caller
            .nic_transfer_capped(slice.len() as u64, self.profile.per_conn_bandwidth)
            .await;
        self.settle_get(Op::GetRange, slice.len() as u64, t0);
        Ok(slice)
    }

    fn read_visible(&self, bucket: &str, key: &str) -> Result<Payload, BlobError> {
        let now = self.sim.now();
        let st = self.state.borrow();
        let b = st
            .buckets
            .get(bucket)
            .ok_or_else(|| BlobError::NoSuchBucket(bucket.to_owned()))?;
        b.get(key)
            .and_then(|versions| visible(versions, now))
            .cloned()
            .ok_or_else(|| BlobError::NoSuchKey(key.to_owned()))
    }

    /// Delete an object (idempotent; deleting a missing key is not an
    /// error, matching S3).
    pub async fn delete(&self, _caller: &Host, bucket: &str, key: &str) -> Result<(), BlobError> {
        self.chaos_gate(Op::Delete).await?;
        let latency = self.sample_latency();
        self.sim.sleep(latency).await;
        let visible_at = self.sample_visibility(self.sim.now());
        {
            let mut st = self.state.borrow_mut();
            let b = st
                .buckets
                .get_mut(bucket)
                .ok_or_else(|| BlobError::NoSuchBucket(bucket.to_owned()))?;
            if let Some(versions) = b.get_mut(key) {
                versions.push(ObjectVersion {
                    data: Payload::new(),
                    visible_at,
                    tombstone: true,
                });
            }
        }
        self.settle_put_tier(Op::Delete);
        Ok(())
    }

    /// List visible `(key, size)` pairs with the given prefix — what an
    /// S3 LIST response actually carries. Sizes let a scanner plan byte
    /// partitions without issuing a request per object. Billed as one
    /// request at the PUT tier, like S3's LIST.
    pub async fn list_objects(
        &self,
        _caller: &Host,
        bucket: &str,
        prefix: &str,
    ) -> Result<Vec<(String, u64)>, BlobError> {
        self.chaos_gate(Op::List).await?;
        let latency = self.sample_latency();
        self.sim.sleep(latency).await;
        let now = self.sim.now();
        let st = self.state.borrow();
        let b = st
            .buckets
            .get(bucket)
            .ok_or_else(|| BlobError::NoSuchBucket(bucket.to_owned()))?;
        let keys = b
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(prefix))
            .filter_map(|(k, versions)| Some((k.clone(), visible(versions, now)?.len() as u64)))
            .collect();
        drop(st);
        self.settle_put_tier(Op::List);
        Ok(keys)
    }

    /// The store's per-connection throughput cap, bits/second. Scanners
    /// use this to size their ranged-read pipelines (how many concurrent
    /// range GETs it takes to saturate one worker's scan throughput).
    pub fn per_conn_bandwidth(&self) -> faasim_simcore::Bps {
        self.profile.per_conn_bandwidth
    }

    /// Total bytes of all *latest visible* objects (for storage accounting).
    pub fn stored_bytes(&self) -> u64 {
        let now = self.sim.now();
        let st = self.state.borrow();
        st.buckets
            .values()
            .flat_map(|b| b.values())
            .filter_map(|versions| visible(versions, now))
            .map(|data| data.len() as u64)
            .sum()
    }

    /// Number of visible objects across all buckets.
    pub fn object_count(&self) -> usize {
        let now = self.sim.now();
        let st = self.state.borrow();
        st.buckets
            .values()
            .flat_map(|b| b.values())
            .filter(|versions| visible(versions, now).is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasim_net::{Fabric, NetProfile, NicConfig};
    use faasim_simcore::{mbps, Sim};

    fn setup(profile: BlobProfile) -> (Sim, BlobStore, Host, Ledger) {
        let sim = Sim::new(7);
        let recorder = Recorder::new();
        let fabric = Fabric::new(&sim, NetProfile::aws_2018().exact(), recorder.clone());
        let host = fabric.add_host(0, NicConfig::simple(mbps(10_000.0)));
        let ledger = Ledger::new();
        let store = BlobStore::new(
            &sim,
            profile,
            Rc::new(PriceBook::aws_2018()),
            ledger.clone(),
            recorder,
        );
        store.create_bucket("b");
        (sim, store, host, ledger)
    }

    #[test]
    fn handles_resolve_on_first_use() {
        let (sim, store, host, ledger) = setup(BlobProfile::aws_2018().exact());
        let recorder = store.recorder.clone();
        assert!(recorder.counter_names().is_empty());
        assert!(recorder.histogram_names().is_empty());
        assert!(ledger.breakdown().is_empty());
        sim.block_on(async move {
            store
                .get_range(&host, "b", "missing", 0..4)
                .await
                .unwrap_err();
            store.list_objects(&host, "b", "").await.unwrap();
        });
        // The failed GET billed and counted nothing.
        assert_eq!(recorder.counter_names(), ["blob.list"]);
        assert!(recorder.histogram_names().is_empty());
        let items: Vec<_> = ledger
            .breakdown()
            .into_iter()
            .map(|row| (row.0, row.1))
            .collect();
        assert_eq!(items, [(Service::Blob, "put-requests".to_owned())]);
    }

    #[test]
    fn put_get_roundtrip() {
        let (sim, store, host, _) = setup(BlobProfile::aws_2018().exact());
        let got = sim.block_on(async move {
            store
                .put(&host, "b", "k", Payload::from_static(b"hello"))
                .await
                .unwrap();
            store.get(&host, "b", "k").await.unwrap()
        });
        assert!(got.eq_bytes(b"hello"));
    }

    #[test]
    fn one_kb_write_read_matches_table1() {
        // Table 1: Lambda/EC2 I/O to S3, 1KB write+read ≈ 106–108 ms.
        let (sim, store, host, _) = setup(BlobProfile::aws_2018().exact());
        sim.block_on(async move {
            let data = Payload::from(vec![0u8; 1024]);
            store.put(&host, "b", "k", data).await.unwrap();
            store.get(&host, "b", "k").await.unwrap();
        });
        let ms = sim.now().as_secs_f64() * 1e3;
        assert!((ms - 106.0).abs() < 3.0, "write+read took {ms} ms");
    }

    #[test]
    fn hundred_mb_fetch_takes_about_2_5s() {
        // §3.1 CS-1: a 100 MB batch from S3 took 2.49 s on Lambda.
        let (sim, store, host, _) = setup(BlobProfile::aws_2018().exact());
        let took = sim.block_on({
            let store = store.clone();
            async move {
                // 100 MB in O(1) memory: the symbolic data plane times the
                // transfer off `len()` alone.
                let data = Payload::zeros(100_000_000);
                store.put(&host, "b", "batch", data).await.unwrap();
                let t0 = store.sim.now();
                store.get(&host, "b", "batch").await.unwrap();
                store.sim.now() - t0
            }
        });
        let s = took.as_secs_f64();
        assert!((s - 2.49).abs() < 0.02, "fetch took {s} s");
    }

    #[test]
    fn missing_key_and_bucket_error() {
        let (sim, store, host, _) = setup(BlobProfile::aws_2018().exact());
        sim.block_on(async move {
            assert!(matches!(
                store.get(&host, "nope", "k").await,
                Err(BlobError::NoSuchBucket(_))
            ));
            assert!(matches!(
                store.get(&host, "b", "missing").await,
                Err(BlobError::NoSuchKey(_))
            ));
        });
    }

    #[test]
    fn delete_hides_object() {
        let (sim, store, host, _) = setup(BlobProfile::aws_2018().exact());
        sim.block_on(async move {
            store
                .put(&host, "b", "k", Payload::from_static(b"x"))
                .await
                .unwrap();
            store.delete(&host, "b", "k").await.unwrap();
            assert!(matches!(
                store.get(&host, "b", "k").await,
                Err(BlobError::NoSuchKey(_))
            ));
            // Idempotent: deleting again is fine.
            store.delete(&host, "b", "k").await.unwrap();
            assert_eq!(store.object_count(), 0);
        });
    }

    #[test]
    fn list_filters_by_prefix() {
        let (sim, store, host, _) = setup(BlobProfile::aws_2018().exact());
        let keys = sim.block_on(async move {
            for k in ["logs/1", "logs/2", "data/1"] {
                store
                    .put(&host, "b", k, Payload::from_static(b"v"))
                    .await
                    .unwrap();
            }
            store.list_objects(&host, "b", "logs/").await.unwrap()
        });
        let keys: Vec<String> = keys.into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["logs/1", "logs/2"]);
    }

    #[test]
    fn get_range_slices_and_clamps() {
        let (sim, store, host, ledger) = setup(BlobProfile::aws_2018().exact());
        sim.block_on({
            let store = store.clone();
            async move {
                store
                    .put(&host, "b", "k", Payload::from_static(b"hello world"))
                    .await
                    .unwrap();
                let mid = store.get_range(&host, "b", "k", 6..11).await.unwrap();
                assert!(mid.eq_bytes(b"world"));
                // Past-the-end ranges clamp, S3-style.
                let tail = store.get_range(&host, "b", "k", 6..999).await.unwrap();
                assert!(tail.eq_bytes(b"world"));
                let empty = store.get_range(&host, "b", "k", 20..30).await.unwrap();
                assert!(empty.is_empty());
                assert!(matches!(
                    store.get_range(&host, "b", "missing", 0..1).await,
                    Err(BlobError::NoSuchKey(_))
                ));
            }
        });
        // Every range read bills one GET request.
        assert_eq!(ledger.item_quantity(Service::Blob, "get-requests"), 3.0);
    }

    #[test]
    fn get_range_transfer_time_is_proportional() {
        // Half the object moves half the bytes: the 100 MB body from the
        // §3.1 case study takes ~2.49 s whole, so ~1.27 s for 50 MB
        // (53 ms request latency + 50 MB at 41.04 MB/s).
        let (sim, store, host, _) = setup(BlobProfile::aws_2018().exact());
        let took = sim.block_on({
            let store = store.clone();
            async move {
                store
                    .put(&host, "b", "big", Payload::zeros(100_000_000))
                    .await
                    .unwrap();
                let t0 = store.sim.now();
                let half = store
                    .get_range(&host, "b", "big", 0..50_000_000)
                    .await
                    .unwrap();
                assert_eq!(half.len(), 50_000_000);
                store.sim.now() - t0
            }
        });
        let s = took.as_secs_f64();
        assert!((s - 1.27).abs() < 0.02, "half fetch took {s} s");
    }

    #[test]
    fn list_objects_reports_sizes() {
        let (sim, store, host, _) = setup(BlobProfile::aws_2018().exact());
        let listed = sim.block_on(async move {
            store
                .put(&host, "b", "logs/1", Payload::from_static(b"abc"))
                .await
                .unwrap();
            store
                .put(&host, "b", "logs/2", Payload::from_static(b"defgh"))
                .await
                .unwrap();
            store
                .put(&host, "b", "data/1", Payload::from_static(b"x"))
                .await
                .unwrap();
            store.list_objects(&host, "b", "logs/").await.unwrap()
        });
        assert_eq!(
            listed,
            vec![("logs/1".to_owned(), 3), ("logs/2".to_owned(), 5)]
        );
    }

    #[test]
    fn eventual_consistency_serves_stale_reads() {
        let mut profile = BlobProfile::aws_2018().exact();
        profile.eventual_read_lag = Some(LatencyModel::Constant(SimDuration::from_secs(5)));
        let (sim, store, host, _) = setup(profile);
        sim.block_on({
            let store = store.clone();
            async move {
                store
                    .put(&host, "b", "k", Payload::from_static(b"v1"))
                    .await
                    .unwrap();
                // Wait out the first version's visibility lag.
                store.sim.sleep(SimDuration::from_secs(6)).await;
                store
                    .put(&host, "b", "k", Payload::from_static(b"v2"))
                    .await
                    .unwrap();
                // Immediately after the overwrite: still see v1.
                let stale = store.get(&host, "b", "k").await.unwrap();
                assert!(stale.eq_bytes(b"v1"));
                // After the lag: v2.
                store.sim.sleep(SimDuration::from_secs(6)).await;
                let fresh = store.get(&host, "b", "k").await.unwrap();
                assert!(fresh.eq_bytes(b"v2"));
            }
        });
    }

    #[test]
    fn requests_are_billed() {
        let (sim, store, host, ledger) = setup(BlobProfile::aws_2018().exact());
        sim.block_on(async move {
            store
                .put(&host, "b", "k", Payload::from_static(b"x"))
                .await
                .unwrap();
            store.get(&host, "b", "k").await.unwrap();
            store.get(&host, "b", "k").await.unwrap();
        });
        assert_eq!(ledger.item_quantity(Service::Blob, "put-requests"), 1.0);
        assert_eq!(ledger.item_quantity(Service::Blob, "get-requests"), 2.0);
        let expect = 0.005 / 1e3 + 2.0 * 0.0004 / 1e3;
        assert!((ledger.total() - expect).abs() < 1e-12);
    }

    #[test]
    fn stored_bytes_tracks_latest_versions() {
        let (sim, store, host, _) = setup(BlobProfile::aws_2018().exact());
        sim.block_on(async move {
            store
                .put(&host, "b", "k", Payload::from(vec![0u8; 100]))
                .await
                .unwrap();
            store
                .put(&host, "b", "k", Payload::from(vec![0u8; 50]))
                .await
                .unwrap();
            assert_eq!(store.stored_bytes(), 50);
            assert_eq!(store.object_count(), 1);
        });
    }
}
