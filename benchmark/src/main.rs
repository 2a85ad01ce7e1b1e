//! Command line of the repo benchmark; `run.sh` builds and runs this.
//!
//! With `--workload` it runs that one workload in this process and ends
//! its output with the JSON line the benchmark contract asks for. Without
//! it, it runs a full set: every workload in a child process of its own,
//! one after another, collected into `benchmark/out/results.json`.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use faasim_benchmark::json::{self, Value};
use faasim_benchmark::run::{self, RunArgs};
use faasim_benchmark::spec::{self, Spec};
use faasim_benchmark::workloads::NAMES;

const OUT_DIR: &str = "benchmark/out";
const HOLD_OUT_SEED: u64 = 7;
const USAGE: &str = "usage: benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--smoke] [--repeat-check]";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat_check: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 2019,
        seconds: None,
        trace: false,
        smoke: false,
        repeat_check: false,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => cli.workload = Some(value(&mut i)?.clone()),
            "--seed" => cli.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 600]"));
                }
                cli.seconds = Some(seconds);
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    cli.trace = false;
                    i += 1;
                }
                Some("1") => {
                    cli.trace = true;
                    i += 1;
                }
                _ => cli.trace = true,
            },
            "--smoke" => cli.smoke = true,
            "--repeat-check" => cli.repeat_check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(cli)
}

fn write_out(name: &str, contents: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(name);
    std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

/// `--workload W`: one run in this process.
fn run_one(cli: &Cli, workload: &str, seconds: f64) -> Result<bool, String> {
    let args = RunArgs {
        workload: workload.to_owned(),
        seed: cli.seed,
        seconds,
        trace: cli.trace,
        smoke: cli.smoke,
    };
    let outcome = run::run(&args)?;
    println!(
        "# {workload}  seed {}  {}{}",
        cli.seed,
        if cli.trace {
            "traced run: per-layer metrics"
        } else {
            "untraced run: end-to-end metrics"
        },
        if cli.smoke { "  (smoke sizes)" } else { "" }
    );
    for m in &outcome.metrics {
        println!("{} {} {}", m.name, json::num(m.value), m.unit);
    }
    println!("ops_attempted {} count", outcome.attempted);
    println!("ops_failed {} count", outcome.failed);
    for violation in &outcome.violations {
        eprintln!("CHECK FAILED: {violation}");
    }
    let trace = u8::from(cli.trace);
    write_out(&format!("{workload}.trace{trace}.json"), &outcome.detail)?;
    if let Some(chrome) = &outcome.chrome_trace {
        write_out(&format!("trace_{workload}.json"), chrome)?;
    }
    println!("{}", run::contract_line(&outcome));
    Ok(outcome.correct)
}

/// One full set: every workload in a single-threaded child process of its
/// own, untraced and (with `traced`) traced. Returns the runs' detail
/// objects, or `None` if a run failed its checks.
fn run_set(cli: &Cli, seconds: f64, traced: bool) -> Result<Option<Vec<Value>>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut details = Vec::new();
    let mut texts = Vec::new();
    let mut all_correct = true;
    for workload in NAMES {
        for trace in [false, true] {
            if trace && !traced {
                continue;
            }
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload, "--seed", &cli.seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .stdin(Stdio::null());
            if cli.smoke {
                child.arg("--smoke");
            }
            let output = child
                .output()
                .map_err(|e| format!("spawn {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            // Everything but the contract line, which is for the driver.
            let mut lines: Vec<&str> = stdout.lines().collect();
            lines.pop();
            println!("{}\n", lines.join("\n"));
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            all_correct &= output.status.success();
            let path = Path::new(OUT_DIR).join(format!("{workload}.trace{}.json", u8::from(trace)));
            if !output.status.success() && !path.exists() {
                return Err(format!(
                    "{workload} (trace {}) exited with {}",
                    u8::from(trace),
                    output.status
                ));
            }
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            details.push(json::parse(&text)?);
            texts.push(text);
        }
    }
    write_out(
        "results.json",
        &format!(
            "{{\"schema\": \"faasim-benchmark/results/1\", \"seed\": {}, \"hold_out_seed\": {HOLD_OUT_SEED}, \"smoke\": {}, \"seconds\": {}, \"runs\": [\n{}\n]}}\n",
            cli.seed,
            cli.smoke,
            json::num(seconds),
            texts.join(",\n")
        ),
    )?;
    let disturbed: f64 = details
        .iter()
        .filter_map(|d| d.get("host")?.get("disturbed")?.as_f64())
        .sum();
    println!("# {} runs written to {OUT_DIR}/results.json; {disturbed} iterations disturbed (CPU/wall < 0.9), none dropped", details.len());
    Ok(all_correct.then_some(details))
}

fn metric_rows(run: &Value) -> Vec<(String, f64, String)> {
    run.get("metrics")
        .map(Value::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("value")?.as_f64()?,
                m.get("kind")?.as_str()?.to_owned(),
            ))
        })
        .collect()
}

/// `--repeat-check`: two full sets back to back must agree — end-to-end
/// metrics within their bounds, exact metrics and digests to the bit.
fn repeat_check(cli: &Cli, seconds: f64, spec: &Spec) -> Result<bool, String> {
    let (Some(first), Some(second)) = (run_set(cli, seconds, true)?, run_set(cli, seconds, true)?)
    else {
        return Ok(false);
    };
    let mut agree = true;
    println!(
        "\n{:<36} {:<24} {:>16} {:>16} {:>9} {:>7}  verdict",
        "metric", "workload", "first", "second", "diff", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        let workload = a.get("workload").and_then(Value::as_str).unwrap_or("?");
        for key in ["digest", "ops_attempted", "ops_failed"] {
            if a.get(key) != b.get(key) {
                agree = false;
                println!(
                    "{key:<36} {workload:<24} differs: {:?} vs {:?}  FAIL",
                    a.get(key),
                    b.get(key)
                );
            }
        }
        for ((name, x, kind), (_, y, _)) in metric_rows(a).into_iter().zip(metric_rows(b)) {
            let diff = if x == y {
                0.0
            } else {
                (y - x).abs() / x.abs().max(f64::MIN_POSITIVE)
            };
            let bound = spec
                .end_to_end
                .iter()
                .find(|m| m.name == name)
                .and_then(|m| m.bound);
            let verdict = match (kind.as_str(), bound) {
                // setup_s may also differ by a quarter second: at a few
                // hundred ms a share alone is tighter than the host's jitter.
                ("E", Some(bound))
                    if diff <= bound || (name == "setup_s" && (y - x).abs() <= 0.25) =>
                {
                    "ok"
                }
                ("E", Some(_)) => "FAIL",
                ("C" | "M", _) if x.to_bits() == y.to_bits() => "ok",
                ("C" | "M", _) => "FAIL",
                _ => "info",
            };
            agree &= verdict != "FAIL";
            println!(
                "{name:<36} {workload:<24} {x:>16.6} {y:>16.6} {:>8.3}% {:>7}  {verdict}",
                diff * 100.0,
                bound.map_or("-".to_owned(), |b| format!("{:.2}%", b * 100.0)),
            );
        }
    }
    println!(
        "\n# repeat-check: {}",
        if agree {
            "both sets agree"
        } else {
            "the sets DISAGREE"
        }
    );
    Ok(agree)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!(
            "refusing to measure a debug build: run benchmark/run.sh, which builds --release"
        );
        return ExitCode::from(2);
    }
    let spec = spec::load();
    let seconds = cli.seconds.unwrap_or(match (&spec, cli.smoke) {
        (_, true) => 1.0,
        (Ok(spec), false) => spec.run_seconds,
        (Err(_), false) => 15.0,
    });
    let result = match &cli.workload {
        Some(workload) => run_one(&cli, workload, seconds),
        None if cli.repeat_check => spec.and_then(|spec| repeat_check(&cli, seconds, &spec)),
        None => run_set(&cli, seconds, cli.trace).map(|details| details.is_some()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
