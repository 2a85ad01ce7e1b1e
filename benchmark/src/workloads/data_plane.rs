//! `data_plane`: the bulk-data layers with the function platform out of
//! the picture. One pass is a high fan-in link drain, a streaming scan of
//! a real (inline) corpus, a scan of the 30 GB symbolic corpus, and a
//! payload slice/concat/line-count loop. faas, gateway and trace do no
//! work here, so replay-path changes predict no change on it, and its
//! link sees hundreds of thousands of concurrent flows where a replay's
//! NICs see a handful.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;

use faasim::net::Host;
use faasim::payload::{Bytes, Payload};
use faasim::query::{Aggregate, QuerySpec};
use faasim::simcore::{gbps, mbps, FairShareLink, Sim, SimDuration, SimRng};
use faasim::{Cloud, CloudProfile};

use super::{Iteration, Sizes, Workload};
use crate::span::Tracer;

/// The one line every object of the symbolic corpus repeats.
pub const SYNTH_LINE: &str = "GET /assets/app.js 200\n";

/// One flow of the fan-in: how much it moves and whether it is rate-capped.
pub struct Flow {
    pub bytes: u64,
    pub capped: bool,
}

/// Every flow joins one 10 Gb/s link 500 ns after the previous one and all
/// are in flight together before the first finishes; capped flows run at
/// 1 Mb/s so the link's rate classes stay in play. Returns (flows drained,
/// flows left on the link, link-sim events).
pub fn link_fan_in(seed: u64, flows: &[Flow]) -> (u64, usize, u64) {
    let sim = Sim::new(seed);
    let link = FairShareLink::new(&sim, gbps(10.0));
    let drained = Rc::new(Cell::new(0u64));
    for (i, flow) in flows.iter().enumerate() {
        let (link, sim2, drained) = (link.clone(), sim.clone(), drained.clone());
        let (bytes, cap) = (flow.bytes, flow.capped.then(|| mbps(1.0)));
        sim.spawn_detached(async move {
            sim2.sleep(SimDuration::from_nanos(i as u64 * 500)).await;
            link.transfer(bytes, cap).await;
            drained.set(drained.get() + 1);
        });
    }
    sim.run();
    (
        drained.get(),
        link.active_flows(),
        sim.stats().events_processed,
    )
}

pub struct DataPlane {
    seed: u64,
    flows: Vec<Flow>,
    /// Inline corpus objects, shared by reference with every pass's store.
    corpus: Vec<Bytes>,
    /// Lines counted while the corpus was generated.
    corpus_lines: u64,
    synth_objects: usize,
    synth_reps: u64,
    /// The document the payload loop cuts up, and where its lines start.
    document: Payload,
    line_starts: Vec<usize>,
    payload_rounds: usize,
}

/// `~bytes` of access-log lines (whole lines only) and how many there are.
/// The status field has four values, so grouping on it is a small
/// aggregate over every line.
pub fn log_object(bytes: usize, salt: u64) -> (Vec<u8>, u64) {
    use std::io::Write as _;
    let mut out = Vec::with_capacity(bytes + 64);
    let mut lines = 0;
    let mut i = salt;
    while out.len() < bytes {
        writeln!(out, "GET /p/{} {} {}", i % 997, 200 + (i % 4) * 101, i % 31)
            .expect("write to Vec");
        lines += 1;
        i += 1;
    }
    (out, lines)
}

impl DataPlane {
    pub fn new(seed: u64, sizes: &Sizes) -> DataPlane {
        let mut rng = SimRng::stream(seed, "benchmark.data_plane");
        let capped_residue = rng.range_u64(0..16);
        let flows = (0..sizes.flows)
            .map(|i| Flow {
                bytes: rng.range_u64(900_000..1_100_000),
                capped: i % 16 == capped_residue,
            })
            .collect();
        let mut corpus_lines = 0;
        let corpus = (0..sizes.corpus_objects)
            .map(|_| {
                let (object, lines) =
                    log_object(sizes.corpus_object_bytes, rng.range_u64(0..1 << 40));
                corpus_lines += lines;
                Bytes::from(object)
            })
            .collect();
        let (document, _) = log_object(1024 * 1024, rng.range_u64(0..1 << 40));
        let line_starts = std::iter::once(0)
            .chain(
                document
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b == b'\n')
                    .map(|(i, _)| i + 1),
            )
            .collect();
        let mut workload = DataPlane {
            seed,
            flows,
            corpus,
            corpus_lines,
            synth_objects: sizes.synth_objects,
            synth_reps: sizes.synth_object_bytes / SYNTH_LINE.len() as u64,
            document: Payload::inline(document),
            line_starts,
            payload_rounds: sizes.payload_rounds,
        };
        black_box(workload.iterate(&Tracer::off(), false));
        workload
    }

    /// A fresh cloud per pass (so its digest and bill are the pass's own)
    /// holding `objects` under `prefix`.
    fn store(&self, prefix: &str, objects: impl Iterator<Item = Payload>) -> (Cloud, Host) {
        let cloud = Cloud::new(CloudProfile::aws_2018().exact(), self.seed);
        cloud.blob.create_bucket("logs");
        let client = cloud.client_host();
        for (i, body) in objects.enumerate() {
            let (blob, client) = (cloud.blob.clone(), client.clone());
            let key = format!("{prefix}{i:04}");
            cloud.sim.block_on(async move {
                blob.put(&client, "logs", &key, body).await.expect("put");
            });
        }
        (cloud, client)
    }

    fn query(
        cloud: &Cloud,
        client: &Host,
        prefix: &str,
        aggregate: Aggregate,
    ) -> Vec<(String, f64)> {
        let (query, client) = (cloud.query.clone(), client.clone());
        let spec = QuerySpec::new("logs", prefix, aggregate);
        cloud
            .sim
            .block_on(async move { query.run(&client, spec).await })
            .expect("query")
            .rows
    }
}

impl Workload for DataPlane {
    fn unit(&self) -> &'static str {
        "pass"
    }

    fn iterate(&mut self, tr: &Tracer, count: bool) -> Iteration {
        let mut violations = Vec::new();
        let mut check = |ok: bool, what: String| {
            if !ok {
                violations.push(what);
            }
        };

        let span = tr.span("simcore.link_fan_in");
        let (drained, left, link_events) = link_fan_in(self.seed, &self.flows);
        span.ops(drained);
        drop(span);
        let flows = self.flows.len() as u64;
        let undrained = flows - drained;

        let span = tr.span("blob.put_corpus");
        let (inline, client) = self.store("obj-", self.corpus.iter().cloned().map(Payload::inline));
        span.ops(self.corpus.len() as u64);
        drop(span);
        let span = tr.span("query.scan_inline_count");
        let counted = DataPlane::query(&inline, &client, "obj-", Aggregate::CountAll);
        span.ops(self.corpus_lines);
        drop(span);
        let span = tr.span("query.scan_inline_group");
        let groups = DataPlane::query(&inline, &client, "obj-", Aggregate::GroupCount { field: 2 });
        span.ops(self.corpus_lines);
        drop(span);

        let span = tr.span("query.scan_synth");
        let (synth, synth_client) = self.store(
            "part-",
            (0..self.synth_objects).map(|_| Payload::synthetic(SYNTH_LINE, self.synth_reps)),
        );
        let synth_counted = DataPlane::query(&synth, &synth_client, "part-", Aggregate::CountAll);
        let synth_lines = self.synth_objects as u64 * self.synth_reps;
        span.ops(synth_lines);
        drop(span);

        // Cut the document at a moving line boundary, splice a symbolic
        // block in between, and count lines: slice, concat and line_count.
        let span = tr.span("payload.slice_concat_count");
        let doc_lines = self.document.line_count();
        let mut spliced_lines = 0;
        for round in 0..self.payload_rounds {
            let cut = self.line_starts[(round * 7919) % self.line_starts.len()];
            let spliced = Payload::concat([
                self.document.slice(..cut),
                Payload::synthetic(SYNTH_LINE, 1_000),
                self.document.slice(cut..),
            ]);
            spliced_lines += spliced.line_count();
        }
        span.ops(self.payload_rounds as u64);
        drop(span);

        check(
            left == 0,
            format!("{left} flows still on the link after it drained"),
        );
        check(
            counted.len() == 1 && counted[0].1 == self.corpus_lines as f64,
            format!(
                "CountAll gave {counted:?}, corpus has {} lines",
                self.corpus_lines
            ),
        );
        check(
            groups.len() == 4
                && groups.iter().map(|g| g.1).sum::<f64>() == self.corpus_lines as f64,
            format!(
                "GroupCount gave {groups:?}, corpus has {} lines",
                self.corpus_lines
            ),
        );
        check(
            synth_counted.len() == 1 && synth_counted[0].1 == synth_lines as f64,
            format!("symbolic CountAll gave {synth_counted:?}, corpus has {synth_lines} lines"),
        );
        let want = self.payload_rounds as u64 * (doc_lines + 1_000);
        check(
            spliced_lines == want,
            format!("spliced payloads hold {spliced_lines} lines, expected {want}"),
        );
        // Four query-side checks above; each undrained flow is a failure
        // of its own.
        let failed = violations.len() as u64 + undrained;
        if undrained > 0 {
            violations.push(format!("{undrained} of {flows} flows never finished"));
        }

        let fingerprint = format!(
            "link events={link_events}\n{}\n{}\n{}\n{}\ncounted={counted:?} groups={groups:?} synth={synth_counted:?} spliced={spliced_lines}",
            inline.recorder.digest(),
            inline.ledger.report(),
            synth.recorder.digest(),
            synth.ledger.report(),
        );
        Iteration {
            units: 1,
            attempted: flows + 4,
            failed,
            fingerprint,
            violations,
            counts: if count {
                vec![(
                    "simcore.link_events_per_flow",
                    link_events as f64 / flows.max(1) as f64,
                )]
            } else {
                Vec::new()
            },
            replay: None,
        }
    }
}
