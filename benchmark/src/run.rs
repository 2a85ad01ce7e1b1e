//! One run of one workload: set up, measure, check, report.
//!
//! An untraced run (`--trace 0`) repeats the set-up a few times, then
//! iterates the workload on the same seed until the time budget is spent,
//! and reports the end-to-end metrics. A traced run (`--trace 1`) spends
//! its time on the layers instead: two plain/traced iteration pairs and a
//! counting iteration, then every kernel, and reports the per-layer
//! metrics.

use std::time::Instant;

use crate::calib::{Calibrator, NOMINAL_SPIN_S};
use crate::metric::{Kind, Metric};
use crate::span::{self, Tracer};
use crate::stats::{summarize, Summary};
use crate::workloads::{self, fnv1a_hex, Iteration, Sizes, Workload};
use crate::{budget, host, json, kernels, paper_refs};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed iterations an untraced run makes at least, whatever `--seconds`.
const MIN_ITERATIONS: usize = 3;
/// `peak_rss_mb` is read once this many timed iterations are done, so it
/// is the peak of a fixed amount of work: a run that fits more iterations
/// into its seconds must not read higher for it.
const RSS_AFTER_ITERATIONS: usize = 5;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Time budget of the timed loop, seconds.
    pub seconds: f64,
    /// Per-layer run instead of end-to-end run.
    pub trace: bool,
    /// Shrunk sizes.
    pub smoke: bool,
}

/// Exact counts and simulated statistics a traced run reports; workloads
/// that cannot measure one report it as 0 (see the README).
pub const COUNT_METRICS: [(&str, &str, Kind); 14] = [
    ("simcore.polls_per_inv", "1/inv", Kind::Count),
    ("simcore.spawns_per_inv", "1/inv", Kind::Count),
    ("simcore.timer_pushes_per_inv", "1/inv", Kind::Count),
    ("simcore.timer_cancels_per_inv", "1/inv", Kind::Count),
    ("simcore.wheel_cascades_per_inv", "1/inv", Kind::Count),
    ("simcore.peak_live_tasks", "count", Kind::Count),
    ("simcore.peak_pending_timers", "count", Kind::Count),
    ("simcore.recorder_samples_per_inv", "1/inv", Kind::Count),
    ("simcore.link_events_per_flow", "1/flow", Kind::Count),
    ("faas.attempts_per_inv", "1/inv", Kind::Count),
    ("faas.cold_start_pct", "%", Kind::Count),
    ("faas.sim_p50_ms", "ms", Kind::Model),
    ("faas.sim_p99_ms", "ms", Kind::Model),
    ("faas.usd_per_sim_hr", "USD/h", Kind::Model),
];

/// One timed section, with what the host did meanwhile.
#[derive(Clone, Copy, Debug)]
struct Sample {
    /// Wall-clock of the section.
    wall_s: f64,
    /// Process CPU time over the section.
    cpu_s: Option<f64>,
    /// Mean of the calibration spins right before and right after it.
    calib_s: f64,
}

impl Sample {
    fn disturbed(&self) -> bool {
        self.cpu_s
            .is_some_and(|cpu| cpu / self.wall_s < host::DISTURBED_BELOW)
    }

    /// The section's wall-clock in reference-host seconds (see `calib`).
    fn ref_s(&self) -> f64 {
        self.wall_s * NOMINAL_SPIN_S / self.calib_s
    }
}

/// Time `section` between two calibration spins.
fn sample<T>(calibrator: &mut Calibrator, section: impl FnOnce() -> T) -> (T, Sample) {
    let before = calibrator.spin();
    let cpu0 = host::cpu_time_s();
    let start = Instant::now();
    let out = section();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = host::cpu_time_s().zip(cpu0).map(|(now, then)| now - then);
    let calib_s = (before + calibrator.spin()) / 2.0;
    (
        out,
        Sample {
            wall_s,
            cpu_s,
            calib_s,
        },
    )
}

/// The result of a run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Every output check held and every iteration produced the same bytes.
    pub correct: bool,
    /// Operations attempted by one iteration (exact for a seed).
    pub attempted: u64,
    /// Operations failed in one iteration (exact for a seed).
    pub failed: u64,
    /// The metrics of this kind of run, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// FNV-1a of the iterations' common fingerprint.
    pub digest: String,
    /// Output checks that failed.
    pub violations: Vec<String>,
    /// Everything above and the timing detail, as one JSON object.
    pub detail: String,
    /// Chrome-trace JSON of a traced run.
    pub chrome_trace: Option<String>,
}

fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"n\": {}, \"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}}}",
        s.n,
        json::num(s.min),
        json::num(s.q1),
        json::num(s.median),
        json::num(s.q3),
        json::num(s.max)
    )
}

fn samples_json(samples: &[Sample]) -> String {
    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "{{\"wall_s\": {}, \"cpu_s\": {}, \"calib_s\": {}, \"ref_s\": {}, \"disturbed\": {}}}",
                json::num(s.wall_s),
                s.cpu_s.map_or("null".to_owned(), json::num),
                json::num(s.calib_s),
                json::num(s.ref_s()),
                s.disturbed()
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

/// A workload that is set up, and what measuring it has gathered so far.
struct Session<'a> {
    args: &'a RunArgs,
    workload: Box<dyn Workload>,
    calibrator: Calibrator,
    /// The first iteration: every later one must reproduce it.
    first: Option<Iteration>,
    samples: Vec<Sample>,
    violations: Vec<String>,
}

impl Session<'_> {
    /// Run and time one iteration, and fold it into the run's checks: its
    /// own violations, and that it reproduces the first byte for byte.
    fn iterate(&mut self, tr: &Tracer, count: bool) -> Iteration {
        let workload = self.workload.as_mut();
        let (next, took) = sample(&mut self.calibrator, || {
            let span = tr.span("iter");
            let iteration = workload.iterate(tr, count);
            span.ops(iteration.units);
            iteration
        });
        let index = self.samples.len();
        self.samples.push(took);
        self.violations.extend(
            next.violations
                .iter()
                .map(|v| format!("iteration {index}: {v}")),
        );
        match &self.first {
            None => self.first = Some(next.clone()),
            Some(first) => {
                if next.fingerprint != first.fingerprint {
                    self.violations.push(format!(
                        "iteration {index} diverged from iteration 0: digest {} vs {}",
                        fnv1a_hex(&next.fingerprint),
                        fnv1a_hex(&first.fingerprint)
                    ));
                }
                if (next.units, next.attempted, next.failed)
                    != (first.units, first.attempted, first.failed)
                {
                    self.violations.push(format!(
                        "iteration {index} did different work than iteration 0"
                    ));
                }
            }
        }
        next
    }
}

/// What one kind of run adds to the common result.
struct Findings {
    metrics: Vec<Metric>,
    /// Members of the detail object, each ending in `", "`.
    detail: String,
    chrome_trace: Option<String>,
}

/// `--trace 0`: iterate until the seconds are spent, then the accuracy
/// pass; the end-to-end metrics.
fn untraced(session: &mut Session<'_>, setup: &Summary) -> Findings {
    let off = Tracer::off();
    let args = session.args;
    let unit = session.workload.unit();
    let started = Instant::now();
    let mut peak_rss_mb = None;
    while session.samples.len() < if args.smoke { 2 } else { MIN_ITERATIONS }
        || started.elapsed().as_secs_f64() < args.seconds
    {
        session.iterate(&off, false);
        if session.samples.len() == RSS_AFTER_ITERATIONS {
            peak_rss_mb = host::peak_rss_mb();
        }
    }
    let iter = summarize(
        &session
            .samples
            .iter()
            .map(Sample::ref_s)
            .collect::<Vec<_>>(),
    );
    let iter_wall = summarize(&session.samples.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    // A run too short for RSS_AFTER_ITERATIONS reads it here: still before
    // the accuracy pass below, so it is the workload's own.
    let peak_rss_mb = peak_rss_mb.or_else(host::peak_rss_mb).unwrap_or(0.0);
    let refs = paper_refs::measure(args.seed);
    let (err_mean, err_max) = paper_refs::err_mean_max(&refs);
    let detail = format!(
        "\"unit\": {}, \"timings\": {{\"setup_ref_s\": {}, \"iter_ref_s\": {}, \"iter_wall_s\": {}}}, \"paper_refs\": [{}], ",
        json::escape(unit),
        summary_json(setup),
        summary_json(&iter),
        summary_json(&iter_wall),
        refs.iter()
            .map(|r| format!(
                "{{\"group\": {}, \"label\": {}, \"paper\": {}, \"measured\": {}, \"err_pct\": {}}}",
                json::escape(r.group),
                json::escape(r.label),
                json::num(r.paper),
                json::num(r.measured),
                json::num(r.err_pct())
            ))
            .collect::<Vec<_>>()
            .join(", "),
    );
    let units = session.first.as_ref().map_or(0, |first| first.units);
    let e2e = |name: &str, value: f64, unit| Metric::new(name, value, unit, Kind::EndToEnd);
    Findings {
        metrics: vec![
            e2e("setup_s", setup.median, "s"),
            e2e("work_per_s", units as f64 / iter.median, "1/s"),
            e2e("peak_rss_mb", peak_rss_mb, "MB"),
            e2e("paper_err_mean_pct", err_mean, "%"),
            e2e("paper_err_max_pct", err_max, "%"),
        ],
        detail,
        chrome_trace: None,
    }
}

/// `--trace 1`: plain, traced and counting iterations, the probes, every
/// kernel; the per-layer metrics.
fn traced(session: &mut Session<'_>, setup: &Summary) -> Findings {
    let (off, on) = (Tracer::off(), Tracer::on());
    let args = session.args;
    // Two interleaved plain/traced pairs: a span costs less than the
    // host's jitter, so each side is judged by its faster iteration.
    for pair in 0..2 {
        session.iterate(&off, false);
        on.set_iter(pair);
        session.iterate(&on, false);
    }
    let fastest = |picked: [usize; 2]| {
        picked
            .iter()
            .map(|&i| session.samples[i].wall_s)
            .fold(f64::INFINITY, f64::min)
    };
    let (plain_wall_s, traced_wall_s) = (fastest([0, 2]), fastest([1, 3]));
    let counted = session.iterate(&off, true);
    on.set_iter(2);
    {
        let _span = on.span("probes");
        session.workload.probes(&on);
    }
    on.set_iter(3);
    let kernel_report = {
        let _span = on.span("kernels");
        kernels::run(&on, args.seed, args.smoke)
    };

    for (name, _) in &counted.counts {
        assert!(
            COUNT_METRICS.iter().any(|known| known.0 == *name),
            "{name} is counted but not listed in COUNT_METRICS"
        );
    }
    let mut metrics: Vec<Metric> = COUNT_METRICS
        .iter()
        .map(|&(name, unit, kind)| {
            let value = counted
                .counts
                .iter()
                .find(|(counted_name, _)| *counted_name == name)
                .map_or(0.0, |&(_, value)| value);
            Metric::new(name, value, unit, kind)
        })
        .collect();
    metrics.extend(kernel_report.metrics.iter().cloned());
    metrics.extend(match &counted.replay {
        Some(counts) => budget::replay(
            counts,
            &kernel_report,
            plain_wall_s * 1e9 / counted.units.max(1) as f64,
        ),
        None => budget::not_applicable(),
    });
    metrics.push(Metric::new(
        "trace_overhead_pct",
        (traced_wall_s / plain_wall_s - 1.0) * 100.0,
        "%",
        Kind::Derived,
    ));

    let spans = on.spans();
    let detail = format!(
        "\"timings\": {{\"setup_ref_s\": {}}}, \"spans\": [{}], ",
        summary_json(setup),
        span::self_times_by_name(&spans)
            .iter()
            .map(|(name, count, self_ns, ops)| format!(
                "{{\"name\": {}, \"count\": {count}, \"self_ns\": {self_ns}, \"ops\": {ops}}}",
                json::escape(name)
            ))
            .collect::<Vec<_>>()
            .join(", "),
    );
    Findings {
        metrics,
        detail,
        chrome_trace: Some(span::chrome_trace(&spans, &args.workload)),
    }
}

/// Run `args.workload`. `Err` only for a name no workload has.
pub fn run(args: &RunArgs) -> Result<RunOutcome, String> {
    let sizes = Sizes::for_run(args.smoke);
    let loadavg_start = host::loadavg();
    let mut calibrator = Calibrator::new();
    let mut setups = Vec::new();
    let mut workload = None;
    for _ in 0..if args.trace || args.smoke { 1 } else { SETUPS } {
        // Free the previous instance first, so set-ups do not stack up in
        // peak memory.
        drop(workload.take());
        let (built, took) = sample(&mut calibrator, || {
            workloads::setup(&args.workload, args.seed, &sizes)
        });
        workload = Some(built.ok_or_else(|| {
            format!(
                "unknown workload {:?}; known: {:?}",
                args.workload,
                workloads::NAMES
            )
        })?);
        setups.push(took);
    }
    let setup = summarize(&setups.iter().map(Sample::ref_s).collect::<Vec<_>>());
    let mut session = Session {
        args,
        workload: workload.expect("at least one set-up"),
        calibrator,
        first: None,
        samples: Vec::new(),
        violations: Vec::new(),
    };
    let Findings {
        metrics,
        detail,
        chrome_trace,
    } = if args.trace {
        traced(&mut session, &setup)
    } else {
        untraced(&mut session, &setup)
    };
    let Session {
        first,
        samples,
        violations,
        ..
    } = session;
    let first = first.expect("both kinds of run iterate at least once");

    let disturbed = samples.iter().filter(|s| s.disturbed()).count();
    let digest = fnv1a_hex(&first.fingerprint);
    let correct = violations.is_empty();
    let detail = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"smoke\": {}, \"seconds\": {}, \"correct\": {correct}, \
         \"ops_attempted\": {}, \"ops_failed\": {}, \"digest\": {}, {detail}\
         \"host\": {{\"nproc\": {}, \"loadavg_start\": {}, \"disturbed\": {disturbed}, \"iterations\": {}}}, \
         \"metrics\": [{}], \"violations\": [{}]}}",
        json::escape(&args.workload),
        args.seed,
        u8::from(args.trace),
        args.smoke,
        json::num(args.seconds),
        first.attempted,
        first.failed,
        json::escape(&digest),
        host::nproc(),
        loadavg_start.as_deref().map_or("null".to_owned(), json::escape),
        samples_json(&samples),
        metrics
            .iter()
            .map(|m| format!(
                "{{\"name\": {}, \"value\": {}, \"unit\": {}, \"kind\": {}}}",
                json::escape(&m.name),
                json::num(m.value),
                json::escape(m.unit),
                json::escape(m.kind.code())
            ))
            .collect::<Vec<_>>()
            .join(", "),
        violations.iter().map(|v| json::escape(v)).collect::<Vec<_>>().join(", "),
    );
    Ok(RunOutcome {
        correct,
        attempted: first.attempted,
        failed: first.failed,
        metrics,
        digest,
        violations,
        detail,
        chrome_trace,
    })
}

/// The last line of a run's standard output: the object the benchmark
/// contract asks for.
pub fn contract_line(outcome: &RunOutcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        outcome
            .metrics
            .iter()
            .map(|m| format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::escape(&m.name),
                json::num(m.value),
                json::escape(m.unit)
            ))
            .collect::<Vec<_>>()
            .join(", ")
    )
}
