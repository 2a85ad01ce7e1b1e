//! # faasim-query
//!
//! An Athena-like **autoscaling query service**: scan-and-aggregate
//! queries pushed down to the object store, executed by an elastic worker
//! pool inside the service, billed per terabyte scanned.
//!
//! This is the substrate behind the paper's §2 *orchestration functions*
//! pattern ("Lambda functions to orchestrate analytics queries that are
//! executed by AWS Athena, an autoscaling query service that works with
//! data in S3 ... the 'heavy lifting' of the computation over data is
//! done by Athena, not by Lambda"). It is also the counterpoint used by
//! the data-shipping ablation: the service scans *next to* the data at
//! aggregate worker throughput, while a Lambda doing the same work must
//! drag every byte through its own throttled NIC.
//!
//! ## The streaming scan pipeline
//!
//! A query recruits up to [`QueryProfile::max_parallelism`] workers (one
//! per [`QueryProfile::partition_bytes`] of input, capped by the object
//! count). Workers claim objects from a shared queue and **stream** each
//! one through ranged reads ([`BlobStore::get_range`]) of
//! [`QueryProfile::stream_chunk_bytes`] each, keeping several range GETs
//! in flight per worker — enough concurrent per-connection streams to
//! saturate one worker's scan throughput — and folding every chunk into
//! the aggregate's [`kernel`] as the bytes arrive. Scan
//! time therefore emerges from the actual overlapped per-worker timeline
//! (transfer ∥ scan), not from a post-hoc `bytes / throughput` sleep,
//! and peak buffered data is O(chunk × pipeline depth × workers) instead
//! of O(dataset).
//!
//! The scan is real: ranges are fetched from the blob store's contents
//! and the aggregate is computed over their actual bytes (analytically,
//! for synthetic payloads — a repeated pattern folds once and scales by
//! its repeat count). Every query scans every byte it lists, so
//! [`QueryOutput::bytes_scanned`] is always the listed total.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod kernel;

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use faasim_blob::{BlobError, BlobStore};
use faasim_net::{Fabric, Host, NicConfig};
use faasim_payload::LineRunScanner;
use faasim_pricing::{LazyItem, Ledger, PriceBook, Service};
use faasim_simcore::{
    gbps, join_all, Bps, JoinHandle, LatencyModel, LazyCounter, Recorder, Sim, SimDuration, SimRng,
};

use kernel::{kernel_for, ScanKernel};

/// Errors from query execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// Underlying storage error (missing bucket, etc.).
    Storage(String),
    /// The query matched no objects.
    EmptyInput,
    /// A referenced field index was absent in every record.
    NoSuchField(usize),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Storage(e) => write!(f, "storage error: {e}"),
            QueryError::EmptyInput => write!(f, "query matched no objects"),
            QueryError::NoSuchField(i) => write!(f, "no record has field {i}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<BlobError> for QueryError {
    fn from(e: BlobError) -> Self {
        QueryError::Storage(e.to_string())
    }
}

/// Performance profile of the service.
#[derive(Clone, Debug)]
pub struct QueryProfile {
    /// Planning/queueing latency before workers start.
    pub planning_latency: LatencyModel,
    /// Scan throughput of one worker, bits/second.
    pub per_worker_throughput: Bps,
    /// Bytes one worker is assigned before another is recruited.
    pub partition_bytes: u64,
    /// Elastic ceiling on concurrent workers.
    pub max_parallelism: u32,
    /// Minimum billable bytes per query (Athena: 10 MB).
    pub min_billed_bytes: u64,
    /// Size of one streamed ranged read. Bounds per-worker buffering:
    /// a worker holds at most `stream_chunk_bytes × pipeline depth` of
    /// fetched-but-unfolded data.
    pub stream_chunk_bytes: u64,
}

impl QueryProfile {
    /// Athena-like calibration circa 2018: ~1 s planning, workers that
    /// stream ~1.6 Gbps each (200 MB/s of columnar scan), 64-way
    /// elasticity, 10 MB minimum billing, 8 MB ranged reads.
    pub fn aws_2018() -> QueryProfile {
        QueryProfile {
            planning_latency: LatencyModel::LogNormal {
                mean: SimDuration::from_millis(1_000),
                cv: 0.2,
                floor: SimDuration::from_millis(300),
            },
            per_worker_throughput: gbps(1.6),
            partition_bytes: 128 * 1024 * 1024,
            max_parallelism: 64,
            min_billed_bytes: 10 * 1024 * 1024,
            stream_chunk_bytes: 8 * 1024 * 1024,
        }
    }

    /// Constant means for exact reproduction.
    pub fn exact(mut self) -> QueryProfile {
        self.planning_latency = self.planning_latency.to_constant();
        self
    }
}

/// The aggregate a query computes over matching records. Records are
/// newline-separated lines of whitespace-separated fields.
#[derive(Clone, Debug, PartialEq)]
pub enum Aggregate {
    /// Count all records.
    CountAll,
    /// Histogram of the values in field `field`.
    GroupCount {
        /// Zero-based field index.
        field: usize,
    },
}

/// A scan-and-aggregate query over `bucket` objects with `prefix`.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// Bucket to scan.
    pub bucket: String,
    /// Key prefix selecting the objects.
    pub prefix: String,
    /// The aggregate to compute.
    pub aggregate: Aggregate,
}

impl QuerySpec {
    /// A full-scan query.
    pub fn new(
        bucket: impl Into<String>,
        prefix: impl Into<String>,
        aggregate: Aggregate,
    ) -> QuerySpec {
        QuerySpec {
            bucket: bucket.into(),
            prefix: prefix.into(),
            aggregate,
        }
    }
}

/// Query result plus execution accounting.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryOutput {
    /// Result rows `(group, value)`; a single `("", value)` row for
    /// scalar aggregates.
    pub rows: Vec<(String, f64)>,
    /// Bytes scanned (what you're billed for): the listed objects' total.
    pub bytes_scanned: u64,
    /// Workers recruited.
    pub workers: u32,
    /// Objects read.
    pub objects: usize,
    /// End-to-end latency as observed by the caller.
    pub duration: SimDuration,
}

/// Shared pipeline state: the object claim cursor, the scanned-byte
/// meter, and the first failure (which stops every worker).
#[derive(Default)]
struct PipelineState {
    next_object: usize,
    bytes_scanned: u64,
    failure: Option<QueryError>,
}

/// Recorder and ledger handles of the per-query path, resolved on first
/// use (see [`LazyCounter`]). The per-caller series are named at run
/// time and stay by-name.
struct Handles {
    executed: LazyCounter,
    bytes_scanned: LazyCounter,
    bill_tb_scanned: LazyItem,
}

/// The query service handle. Cheap to clone.
#[derive(Clone)]
pub struct QueryService {
    sim: Sim,
    blob: BlobStore,
    profile: Rc<QueryProfile>,
    prices: Rc<PriceBook>,
    ledger: Ledger,
    recorder: Recorder,
    handles: Rc<Handles>,
    /// One planning stream for the service, so each query draws afresh.
    rng: Rc<RefCell<SimRng>>,
    /// Service-internal host: scans run *next to the data*, not through
    /// the caller's NIC — the architectural point of the push-down.
    service_host: Host,
}

impl QueryService {
    /// Create the service on the fabric.
    pub fn new(
        sim: &Sim,
        fabric: &Fabric,
        blob: &BlobStore,
        profile: QueryProfile,
        prices: Rc<PriceBook>,
        ledger: Ledger,
        recorder: Recorder,
    ) -> QueryService {
        // The service fleet's connectivity to storage is effectively
        // unconstrained compared to any single caller.
        let service_host = fabric.add_host(0, NicConfig::simple(gbps(400.0)));
        QueryService {
            sim: sim.clone(),
            blob: blob.clone(),
            profile: Rc::new(profile),
            prices,
            ledger,
            recorder,
            handles: Rc::new(Handles {
                executed: LazyCounter::new("query.executed"),
                bytes_scanned: LazyCounter::new("query.bytes_scanned"),
                bill_tb_scanned: LazyItem::new(Service::Query, "tb-scanned"),
            }),
            rng: Rc::new(RefCell::new(sim.rng("query.planning"))),
            service_host,
        }
    }

    /// Execute a query. The returned future completes when results are
    /// ready; the caller pays only planning + scan time, never the data
    /// movement (that happens inside the service, next to the data).
    pub async fn run(&self, caller: &Host, spec: QuerySpec) -> Result<QueryOutput, QueryError> {
        let t0 = self.sim.now();
        let planning = {
            let mut rng = self.rng.borrow_mut();
            self.profile.planning_latency.sample(&mut rng)
        };
        self.sim.sleep(planning).await;

        let objects = self
            .blob
            .list_objects(&self.service_host, &spec.bucket, &spec.prefix)
            .await?;
        if objects.is_empty() {
            return Err(QueryError::EmptyInput);
        }
        let total_bytes: u64 = objects.iter().map(|&(_, size)| size).sum();

        // Elastic recruitment: one worker per partition of input, capped
        // by the fleet ceiling — and by the object count, since the unit
        // of work distribution is an object (line records never span
        // objects, so neither do workers).
        let workers = (total_bytes.div_ceil(self.profile.partition_bytes.max(1)) as u32)
            .clamp(1, self.profile.max_parallelism)
            .min(objects.len() as u32)
            .max(1);
        let chunk_bytes = self.profile.stream_chunk_bytes.max(1);
        // One per-connection stream usually cannot feed a scan worker
        // (41 MB/s conn vs 200 MB/s scan): keep enough concurrent range
        // GETs in flight to saturate the worker, Lambada-style.
        let depth = ((self.profile.per_worker_throughput
            / self.blob.per_conn_bandwidth().max(1.0))
        .ceil() as usize)
            .clamp(2, 8);

        let kernel = RefCell::new(kernel_for(&spec.aggregate));
        let state = RefCell::new(PipelineState::default());
        let scans: Vec<_> = (0..workers)
            .map(|_| self.scan_worker(&spec, &objects, chunk_bytes, depth, &kernel, &state))
            .collect();
        join_all(scans).await;

        let PipelineState {
            bytes_scanned,
            failure,
            ..
        } = state.into_inner();
        if let Some(e) = failure {
            return Err(e);
        }

        // Billing: per TB scanned, with a minimum.
        let billed = bytes_scanned.max(self.profile.min_billed_bytes);
        let tb = billed as f64 / 1e12;
        let h = &self.handles;
        h.bill_tb_scanned
            .charge(&self.ledger, tb, tb * self.prices.query_per_tb_scanned);
        h.executed.incr(&self.recorder);
        h.bytes_scanned.add(&self.recorder, bytes_scanned);
        // Per-caller attribution, so multi-tenant experiments can see
        // who drove the scan bill.
        let host_tag = caller.id().0;
        self.recorder.incr(&format!("query.executed.host-{host_tag}"));
        self.recorder
            .add(&format!("query.bytes_scanned.host-{host_tag}"), bytes_scanned);

        let rows = kernel.into_inner().finish()?;
        Ok(QueryOutput {
            rows,
            bytes_scanned,
            workers,
            objects: objects.len(),
            duration: self.sim.now() - t0,
        })
    }

    /// One scan worker: claim objects off the shared cursor and stream
    /// each through a pipeline of `depth` concurrent ranged reads,
    /// folding chunks into the shared kernel in order as they land. A
    /// failed fetch stops issuance everywhere.
    async fn scan_worker(
        &self,
        spec: &QuerySpec,
        objects: &[(String, u64)],
        chunk_bytes: u64,
        depth: usize,
        kernel: &RefCell<Box<dyn ScanKernel>>,
        state: &RefCell<PipelineState>,
    ) {
        // An in-flight ranged read: (object index, is-last-chunk, fetch).
        type InflightChunk = (usize, bool, JoinHandle<Result<faasim_payload::Payload, BlobError>>);
        // (object index, next offset to fetch) for the object currently
        // being issued.
        let mut issue: Option<(usize, u64)> = None;
        let mut inflight: VecDeque<InflightChunk> = VecDeque::new();
        // Chunks are folded FIFO, so at most one object is mid-fold at a
        // time; its scanner carries partial lines across chunk bounds.
        let mut fold: Option<(usize, LineRunScanner)> = None;

        loop {
            // Top up the ranged-read pipeline.
            while inflight.len() < depth && state.borrow().failure.is_none() {
                let (obj, off) = match issue {
                    Some((obj, off)) if off < objects[obj].1 => (obj, off),
                    _ => {
                        let next = {
                            let mut st = state.borrow_mut();
                            let n = st.next_object;
                            if n < objects.len() {
                                st.next_object += 1;
                            }
                            n
                        };
                        if next >= objects.len() {
                            break;
                        }
                        issue = Some((next, 0));
                        if objects[next].1 == 0 {
                            // Empty object: nothing to fetch, no lines.
                            continue;
                        }
                        (next, 0)
                    }
                };
                let size = objects[obj].1;
                let end = (off + chunk_bytes).min(size);
                let blob = self.blob.clone();
                let host = self.service_host.clone();
                let bucket = spec.bucket.clone();
                let key = objects[obj].0.clone();
                let fetch = self
                    .sim
                    .spawn(async move { blob.get_range(&host, &bucket, &key, off..end).await });
                inflight.push_back((obj, end == size, fetch));
                issue = Some((obj, end));
            }

            // Fold the oldest chunk while the rest keep streaming.
            let Some((obj, last, fetch)) = inflight.pop_front() else {
                break;
            };
            let body = match fetch.await {
                Ok(b) => b,
                Err(e) => {
                    state.borrow_mut().failure.get_or_insert(e.into());
                    break;
                }
            };
            // Scan cost as the bytes arrive, at one worker's throughput.
            self.sim
                .sleep(SimDuration::from_secs_f64(
                    body.len() as f64 * 8.0 / self.profile.per_worker_throughput,
                ))
                .await;
            state.borrow_mut().bytes_scanned += body.len() as u64;

            if !matches!(fold, Some((o, _)) if o == obj) {
                fold = Some((obj, LineRunScanner::new()));
            }
            let (_, scanner) = fold.as_mut().expect("fold scanner just ensured");
            let mut k = kernel.borrow_mut();
            k.fold_chunk(scanner, &body);
            if last {
                // Whole object folded: flush its trailing unterminated
                // line, exactly like a scan of the full body would.
                if let Some((_, scanner)) = fold.take() {
                    k.fold_end(scanner);
                }
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use faasim_blob::BlobProfile;
    use faasim_net::NetProfile;
    use faasim_payload::Payload;
    use faasim_simcore::mbps;
    use proptest::prelude::*;

    /// Random corpora: the pushed-down aggregate must equal a naive
    /// in-memory computation over the same lines.
    fn naive_group_count(docs: &[Vec<String>], field: usize) -> Vec<(String, f64)> {
        let mut out: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        for doc in docs {
            for line in doc {
                if let Some(v) = line.split_whitespace().nth(field) {
                    *out.entry(v.to_owned()).or_default() += 1;
                }
            }
        }
        out.into_iter().map(|(k, v)| (k, v as f64)).collect()
    }

    fn line_strategy() -> impl Strategy<Value = String> {
        (0u8..5, 0u8..4, 0u16..300).prop_map(|(verb, status, path)| {
            format!("verb{verb} /p/{path} s{status}")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn pushed_down_aggregates_match_naive(
            docs in prop::collection::vec(
                prop::collection::vec(line_strategy(), 1..40), 1..6),
        ) {
            let sim = faasim_simcore::Sim::new(17);
            let recorder = Recorder::new();
            let fabric = Fabric::new(&sim, NetProfile::aws_2018().exact(), recorder.clone());
            let prices = Rc::new(PriceBook::aws_2018());
            let ledger = Ledger::new();
            let blob = BlobStore::new(
                &sim,
                BlobProfile::aws_2018().exact(),
                prices.clone(),
                ledger.clone(),
                recorder.clone(),
            );
            blob.create_bucket("logs");
            let query = QueryService::new(
                &sim, &fabric, &blob,
                QueryProfile::aws_2018().exact(),
                prices, ledger, recorder,
            );
            let client = fabric.add_host(1, faasim_net::NicConfig::simple(mbps(1_000.0)));
            let total_lines: usize = docs.iter().map(Vec::len).sum();
            for (i, doc) in docs.iter().enumerate() {
                let blob = blob.clone();
                let client = client.clone();
                let body = Payload::from(doc.join("\n"));
                let key = format!("obj-{i:03}");
                sim.block_on(async move {
                    blob.put(&client, "logs", &key, body).await.unwrap();
                });
            }
            let q = query.clone();
            let c = client.clone();
            let (count, groups) = sim.block_on(async move {
                let count = q.run(&c, QuerySpec::new(
                    "logs", "obj-", Aggregate::CountAll,
                )).await.unwrap();
                let groups = q.run(&c, QuerySpec::new(
                    "logs", "obj-", Aggregate::GroupCount { field: 2 },
                )).await.unwrap();
                (count, groups)
            });
            prop_assert_eq!(count.rows[0].1 as usize, total_lines);
            prop_assert_eq!(groups.rows, naive_group_count(&docs, 2));
        }
    }

    // ---- streaming-vs-eager differential suite -------------------------

    /// One object body: inline bytes, a synthetic repetition, or a
    /// concatenation — the three payload shapes the data plane ships.
    #[derive(Clone, Debug)]
    enum Body {
        Inline(Vec<String>),
        Synthetic(Vec<String>, u64),
        Concat(Vec<Body>),
    }

    impl Body {
        fn build(&self) -> Payload {
            match self {
                Body::Inline(lines) => Payload::inline(lines.join("\n").into_bytes()),
                Body::Synthetic(lines, reps) => {
                    let mut pat = lines.join("\n");
                    pat.push('\n');
                    Payload::synthetic(pat, *reps)
                }
                Body::Concat(parts) => Payload::concat(parts.iter().map(Body::build)),
            }
        }

        fn materialize(&self) -> Vec<u8> {
            match self {
                Body::Inline(lines) => lines.join("\n").into_bytes(),
                Body::Synthetic(lines, reps) => {
                    let mut pat = lines.join("\n");
                    pat.push('\n');
                    pat.repeat(*reps as usize).into_bytes()
                }
                Body::Concat(parts) => {
                    parts.iter().flat_map(|p| p.materialize()).collect()
                }
            }
        }
    }

    fn diff_line_strategy() -> impl Strategy<Value = String> {
        // One record in eight is a lone `\r` (trimmed to nothing, so
        // skipped) and one in eight separates its fields with vertical
        // tabs.
        (0u8..8, 0u8..4, 0u16..40).prop_map(|(shape, tag, num)| match shape {
            0 => "\r".to_owned(),
            1 => format!("t{tag}\x0b{num}\x0bend"),
            _ => format!("t{tag} {num} end"),
        })
    }

    fn leaf_body_strategy() -> impl Strategy<Value = Body> {
        prop_oneof![
            prop::collection::vec(diff_line_strategy(), 0..12).prop_map(Body::Inline),
            (prop::collection::vec(diff_line_strategy(), 1..4), 1u64..40)
                .prop_map(|(l, r)| Body::Synthetic(l, r)),
        ]
    }

    fn body_strategy() -> impl Strategy<Value = Body> {
        prop_oneof![
            leaf_body_strategy(),
            prop::collection::vec(leaf_body_strategy(), 2..4).prop_map(Body::Concat),
        ]
    }

    /// The naive eager reference: materialize every object, split each
    /// into records exactly like the old one-pass scan did (per-object
    /// line boundaries, `\r` trim, empty skip), and aggregate in memory.
    struct NaiveScan {
        records: Vec<String>,
    }

    impl NaiveScan {
        fn of(objects: &[Vec<u8>]) -> NaiveScan {
            let mut records = Vec::new();
            for bytes in objects {
                for line in bytes.split(|&c| c == b'\n') {
                    let line = match line.last() {
                        Some(b'\r') => &line[..line.len() - 1],
                        _ => line,
                    };
                    if !line.is_empty() {
                        records.push(String::from_utf8_lossy(line).into_owned());
                    }
                }
            }
            NaiveScan { records }
        }

        fn rows(&self, agg: &Aggregate) -> Result<Vec<(String, f64)>, QueryError> {
            match agg {
                Aggregate::CountAll => {
                    Ok(vec![(String::new(), self.records.len() as f64)])
                }
                Aggregate::GroupCount { field } => {
                    let mut out: std::collections::BTreeMap<String, u64> =
                        std::collections::BTreeMap::new();
                    for r in &self.records {
                        if let Some(v) = r.split_whitespace().nth(*field) {
                            *out.entry(v.to_owned()).or_default() += 1;
                        }
                    }
                    if out.is_empty() {
                        return Err(QueryError::NoSuchField(*field));
                    }
                    Ok(out.into_iter().map(|(k, v)| (k, v as f64)).collect())
                }
            }
        }
    }

    /// Build a world with deliberately tiny chunks and partitions so the
    /// streaming pipeline exercises multi-worker claim races and lines
    /// straddling chunk boundaries even on small corpora, run every
    /// aggregate, and return each query's output with its `tb-scanned`
    /// charge in dollars, plus the recorder digest.
    #[allow(clippy::type_complexity)]
    fn run_streaming_world(
        bodies: &[Body],
        aggs: &[Aggregate],
        seed: u64,
    ) -> (Vec<(Result<QueryOutput, QueryError>, f64)>, String) {
        let sim = faasim_simcore::Sim::new(seed);
        let recorder = Recorder::new();
        let fabric = Fabric::new(&sim, NetProfile::aws_2018().exact(), recorder.clone());
        let prices = Rc::new(PriceBook::aws_2018());
        let ledger = Ledger::new();
        let blob = BlobStore::new(
            &sim,
            BlobProfile::aws_2018().exact(),
            prices.clone(),
            ledger.clone(),
            recorder.clone(),
        );
        blob.create_bucket("logs");
        let mut profile = QueryProfile::aws_2018().exact();
        profile.stream_chunk_bytes = 7; // lines straddle every chunk
        profile.partition_bytes = 64; // several workers even at toy scale
        let query = QueryService::new(
            &sim,
            &fabric,
            &blob,
            profile,
            prices,
            ledger.clone(),
            recorder.clone(),
        );
        let client = fabric.add_host(1, faasim_net::NicConfig::simple(mbps(1_000.0)));
        for (i, body) in bodies.iter().enumerate() {
            let blob = blob.clone();
            let client = client.clone();
            let payload = body.build();
            let key = format!("obj-{i:03}");
            sim.block_on(async move {
                blob.put(&client, "logs", &key, payload).await.unwrap();
            });
        }
        let mut outputs = Vec::new();
        for agg in aggs {
            let q = query.clone();
            let c = client.clone();
            let spec = QuerySpec::new("logs", "obj-", agg.clone());
            let before = ledger.item_dollars(Service::Query, "tb-scanned");
            let out = sim.block_on(async move { q.run(&c, spec).await });
            outputs.push((out, ledger.item_dollars(Service::Query, "tb-scanned") - before));
        }
        (outputs, recorder.digest())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The differential guarantee for the streaming pipeline: over
        /// random corpora mixing Inline/Synthetic/Concat bodies, every
        /// aggregate's rows equal a naive eager in-memory scan, every
        /// query scans exactly the listed bytes and bills
        /// `max(listed bytes, 10 MB)`, and the whole run is deterministic
        /// (byte-identical recorder digest on replay).
        #[test]
        fn streaming_pipeline_matches_naive_eager_scan(
            bodies in prop::collection::vec(body_strategy(), 1..5),
        ) {
            let materialized: Vec<Vec<u8>> =
                bodies.iter().map(Body::materialize).collect();
            let naive = NaiveScan::of(&materialized);
            let listed_bytes: u64 =
                materialized.iter().map(|b| b.len() as u64).sum();
            let aggs = [Aggregate::CountAll, Aggregate::GroupCount { field: 0 }];

            let (outputs, digest) = run_streaming_world(&bodies, &aggs, 99);
            let min_billed = QueryProfile::aws_2018().min_billed_bytes;
            let price = PriceBook::aws_2018().query_per_tb_scanned;
            let want_charge = listed_bytes.max(min_billed) as f64 / 1e12 * price;
            for (agg, (out, charged)) in aggs.iter().zip(&outputs) {
                prop_assert!(
                    (charged - want_charge).abs() < 1e-12,
                    "agg {:?} charged {}, expected {}", agg, charged, want_charge
                );
                match (naive.rows(agg), out) {
                    (Ok(rows), Ok(out)) => {
                        prop_assert_eq!(&rows, &out.rows, "agg {:?}", agg);
                        prop_assert_eq!(
                            out.bytes_scanned, listed_bytes,
                            "agg {:?} must scan every listed byte", agg
                        );
                    }
                    (Err(e), Err(got)) => prop_assert_eq!(&e, got),
                    (naive, got) => prop_assert!(
                        false, "divergence on {:?}: naive {:?} vs {:?}",
                        agg, naive, got
                    ),
                }
            }

            // Replay: an identical world produces a byte-identical
            // recorder digest — the pipeline is deterministic.
            let (_, digest2) = run_streaming_world(&bodies, &aggs, 99);
            prop_assert_eq!(digest, digest2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasim_blob::BlobProfile;
    use faasim_net::NetProfile;
    use faasim_payload::Payload;
    use faasim_simcore::mbps;

    struct World {
        sim: Sim,
        blob: BlobStore,
        query: QueryService,
        client: Host,
        ledger: Ledger,
        recorder: Recorder,
    }

    fn setup() -> World {
        setup_with(QueryProfile::aws_2018().exact())
    }

    fn setup_with(profile: QueryProfile) -> World {
        let sim = Sim::new(31);
        let recorder = Recorder::new();
        let fabric = Fabric::new(&sim, NetProfile::aws_2018().exact(), recorder.clone());
        let prices = Rc::new(PriceBook::aws_2018());
        let ledger = Ledger::new();
        let blob = BlobStore::new(
            &sim,
            BlobProfile::aws_2018().exact(),
            prices.clone(),
            ledger.clone(),
            recorder.clone(),
        );
        blob.create_bucket("logs");
        let query = QueryService::new(
            &sim,
            &fabric,
            &blob,
            profile,
            prices,
            ledger.clone(),
            recorder.clone(),
        );
        let client = fabric.add_host(3, NicConfig::simple(mbps(1_000.0)));
        World {
            sim,
            blob,
            query,
            client,
            ledger,
            recorder,
        }
    }

    fn put_log(w: &World, key: &str, lines: &[&str]) {
        let blob = w.blob.clone();
        let client = w.client.clone();
        let body = Payload::from(lines.join("\n"));
        let key = key.to_owned();
        w.sim.block_on(async move {
            blob.put(&client, "logs", &key, body).await.unwrap();
        });
    }

    fn run_query(w: &World, spec: QuerySpec) -> Result<QueryOutput, QueryError> {
        let q = w.query.clone();
        let c = w.client.clone();
        w.sim.block_on(async move { q.run(&c, spec).await })
    }

    #[test]
    fn handles_resolve_on_first_use() {
        let w = setup();
        assert!(w.recorder.counter_names().is_empty());
        assert!(w.recorder.histogram_names().is_empty());
        assert!(w.ledger.breakdown().is_empty());
        put_log(&w, "day-1", &["GET /a 200"]);
        run_query(&w, QuerySpec::new("logs", "day-", Aggregate::CountAll)).unwrap();
        let tag = w.client.id().0;
        let mut counters = vec![
            "blob.bytes_in".to_owned(),
            "blob.bytes_out".to_owned(),
            "blob.get_range".to_owned(),
            "blob.list".to_owned(),
            "blob.put".to_owned(),
            "query.bytes_scanned".to_owned(),
            format!("query.bytes_scanned.host-{tag}"),
            "query.executed".to_owned(),
            format!("query.executed.host-{tag}"),
        ];
        counters.sort();
        assert_eq!(w.recorder.counter_names(), counters);
        assert_eq!(
            w.recorder.histogram_names(),
            ["blob.get_range.latency", "blob.put.latency"]
        );
        let items: Vec<_> = w
            .ledger
            .breakdown()
            .into_iter()
            .map(|row| (row.0, row.1))
            .collect();
        assert_eq!(
            items,
            [
                (Service::Blob, "get-requests".to_owned()),
                (Service::Blob, "put-requests".to_owned()),
                (Service::Query, "tb-scanned".to_owned()),
            ]
        );
    }

    #[test]
    fn each_query_draws_its_own_planning_latency() {
        // Storage and network run exact, so only planning can vary.
        let w = setup_with(QueryProfile::aws_2018());
        put_log(&w, "day-1", &["GET /a 200"]);
        let spec = || QuerySpec::new("logs", "day-", Aggregate::CountAll);
        let took: Vec<_> = (0..4)
            .map(|_| run_query(&w, spec()).unwrap().duration)
            .collect();
        assert!(took.windows(2).all(|p| p[0] != p[1]), "{took:?}");
    }

    #[test]
    fn count_all_over_multiple_objects() {
        let w = setup();
        put_log(&w, "day-1", &["GET /a 200", "GET /b 404"]);
        put_log(&w, "day-2", &["POST /a 200"]);
        let out = run_query(&w, QuerySpec::new("logs", "day-", Aggregate::CountAll)).unwrap();
        assert_eq!(out.rows, vec![(String::new(), 3.0)]);
        assert_eq!(out.objects, 2);
        assert!(out.bytes_scanned > 0);
    }

    #[test]
    fn group_count_histograms_a_field() {
        let w = setup();
        put_log(
            &w,
            "day-1",
            &["GET /a 200", "GET /b 404", "GET /c 200", "PUT /a 200"],
        );
        let out = run_query(
            &w,
            QuerySpec::new("logs", "", Aggregate::GroupCount { field: 2 }),
        )
        .unwrap();
        assert_eq!(
            out.rows,
            vec![("200".to_owned(), 3.0), ("404".to_owned(), 1.0)]
        );
    }

    #[test]
    fn missing_field_and_empty_input_error() {
        let w = setup();
        put_log(&w, "x", &["only-one-field"]);
        let missing = run_query(
            &w,
            QuerySpec::new("logs", "", Aggregate::GroupCount { field: 5 }),
        );
        let empty = run_query(&w, QuerySpec::new("logs", "zzz", Aggregate::CountAll));
        assert_eq!(missing.unwrap_err(), QueryError::NoSuchField(5));
        assert_eq!(empty.unwrap_err(), QueryError::EmptyInput);
    }

    #[test]
    fn billing_is_per_tb_with_minimum() {
        let w = setup();
        put_log(&w, "tiny", &["x 1"]);
        run_query(&w, QuerySpec::new("logs", "", Aggregate::CountAll)).unwrap();
        // A 3-byte scan still bills the 10 MB minimum at $5/TB.
        let want = (10.0 * 1024.0 * 1024.0) / 1e12 * 5.0;
        let got = w.ledger.total_for(Service::Query);
        assert!((got - want).abs() < 1e-12, "billed {got}, want {want}");
    }

    #[test]
    fn per_caller_scan_metrics_are_attributed() {
        let w = setup();
        put_log(&w, "day-1", &["GET /a 200", "GET /b 404"]);
        let out = run_query(&w, QuerySpec::new("logs", "", Aggregate::CountAll)).unwrap();
        // The client host that drove the query owns the scan bill in the
        // recorder, keyed by its host id.
        let tag = w.client.id().0;
        assert_eq!(
            w.recorder.counter(&format!("query.executed.host-{tag}")),
            1
        );
        assert_eq!(
            w.recorder.counter(&format!("query.bytes_scanned.host-{tag}")),
            out.bytes_scanned
        );
        assert_eq!(w.recorder.counter("query.bytes_scanned"), out.bytes_scanned);
    }

    #[test]
    fn parallelism_scales_with_bytes() {
        let w = setup();
        // Shrink partitions so ~100 MB of input recruits several workers.
        let mut profile = QueryProfile::aws_2018().exact();
        profile.partition_bytes = 16 * 1024 * 1024;
        let fabric = Fabric::new(&w.sim, NetProfile::aws_2018().exact(), Recorder::new());
        let query = QueryService::new(
            &w.sim,
            &fabric,
            &w.blob,
            profile,
            Rc::new(PriceBook::aws_2018()),
            w.ledger.clone(),
            Recorder::new(),
        );
        // ~100 MB across 8 objects.
        let lines_per_object = 900_000u64;
        for i in 0..8 {
            let blob = w.blob.clone();
            let client = w.client.clone();
            let key = format!("big-{i}");
            w.sim.block_on(async move {
                let line = "GET /path 200\n".repeat(lines_per_object as usize);
                blob.put(&client, "logs", &key, Payload::from(line))
                    .await
                    .unwrap();
            });
        }
        let c = w.client.clone();
        let out = w
            .sim
            .block_on(async move {
                query
                    .run(&c, QuerySpec::new("logs", "big-", Aggregate::CountAll))
                    .await
            })
            .unwrap();
        assert_eq!(out.rows[0].1, (8 * lines_per_object) as f64);
        // 100.8 MB over 16 MB partitions -> 7 workers.
        assert_eq!(out.workers, 7);
        // Planning (1 s) + the streamed scan: 7 workers each pull their
        // ~14 MB through a pipeline of concurrent 8 MB range reads
        // (53 ms request + 41 MB/s per connection) while folding chunks
        // at 1.6 Gbps — transfer and scan overlap, so the whole thing
        // lands well under two seconds, far below what dragging 100 MB
        // through a single Lambda's 538 Mbps shared NIC would cost.
        assert!(
            out.duration < SimDuration::from_secs(2),
            "took {}",
            out.duration
        );
    }
}
