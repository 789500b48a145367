//! `ff_bench`: one seeded harness, seven workloads, an end-to-end sheet and
//! a per-layer ledger. See `README.md` beside this package and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! ff_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! runs one workload in this process and prints, as the last line of
//! standard output, `{"correct", "attempted", "failed", "metrics"}`: every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. Without `--workload` it re-executes itself once per
//! workload and trace mode (so peak RSS is per workload) and prints all of
//! it as one document.

#![forbid(unsafe_code)]

mod fixtures;
mod ledger;
mod serve;
mod spans;
mod stats;
mod train;

use fixtures::TrainKind;
use ledger::{Outcome, END_TO_END, PER_LAYER};
use serve::ServeKind;
use std::process::{Command, ExitCode};

/// Workload names, in `BENCHMARK.json`'s order: heaviest first. This box
/// runs a light workload up to half slower for a minute after a heavy one
/// (see README, "The box"), so the lone caller runs last, after the load
/// has stepped down through the other serving workloads.
const WORKLOADS: [&str; 7] = [
    "train_mlp",
    "train_cnn",
    "train_cluster",
    "serve_goodness",
    "serve_sat",
    "serve_open",
    "serve_lone",
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut words = std::env::args().skip(1);
    while let Some(flag) = words.next() {
        let value = words.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad("between 0 and 60"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Peak resident set of this process so far (`VmHWM`), in MB of 10^6 bytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .expect("VmHWM line");
    kib * 1024.0 / 1e6
}

/// Processor time the host withheld from this machine since boot, in
/// seconds (`steal` in `/proc/stat`, at the usual 100 ticks a second).
fn stolen_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    Some(ticks / 100.0)
}

/// Writes the traced run's spans beside the executable, which is inside the
/// build directory and so never inside the source tree.
pub fn write_trace(recorder: &spans::Recorder, workload: &str) {
    let exe = std::env::current_exe().expect("own path");
    let path = exe.with_file_name(format!("trace_{workload}.json"));
    match recorder.write_json(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(error) => eprintln!("could not write {}: {error}", path.display()),
    }
}

fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    Ok(match name {
        "train_mlp" => train::run(TrainKind::Mlp, seed, seconds, trace),
        "train_cnn" => train::run(TrainKind::Cnn, seed, seconds, trace),
        "train_cluster" => train::run(TrainKind::Cluster, seed, seconds, trace),
        "serve_lone" => serve::run(ServeKind::Lone, seed, seconds, trace),
        "serve_open" => serve::run(ServeKind::Open, seed, seconds, trace),
        "serve_sat" => serve::run(ServeKind::Sat, seed, seconds, trace),
        "serve_goodness" => serve::run(ServeKind::Goodness, seed, seconds, trace),
        _ => return Err(format!("unknown workload {name}; one of {WORKLOADS:?}")),
    })
}

/// Runs one workload here and prints its result line.
fn one(name: &str, args: &Args) -> Result<bool, String> {
    let stolen_before = stolen_s();
    let outcome = run_workload(name, args)?;
    for note in &outcome.notes {
        eprintln!("{name}: {note}");
    }
    // A run the host disturbed says so: its numbers are the neighbours'.
    if let (Some(before), Some(after)) = (stolen_before, stolen_s()) {
        eprintln!(
            "{name}: the host withheld {:.2} s of processor time during this run",
            after - before
        );
    }
    let sheet = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        outcome.ledger.render(sheet, !args.trace)
    );
    Ok(outcome.correct)
}

/// Runs every workload in both modes, each in a child process, and prints
/// one document holding every result line.
fn all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|error| error.to_string())?;
    let mut correct = true;
    let mut entries = Vec::new();
    for name in WORKLOADS {
        let mut lines = Vec::new();
        for trace in ["0", "1"] {
            let output = Command::new(&exe)
                .args(["--workload", name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|error| format!("{name}: {error}"))?;
            correct &= output.status.success();
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or("null").to_string();
            eprintln!("{name} --trace {trace}: {line}");
            lines.push(line);
        }
        entries.push(format!(
            "\"{name}\": {{\"end_to_end\": {}, \"per_layer\": {}}}",
            lines[0], lines[1]
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"seed\": {}, \"seconds\": {}, \"nproc\": {nproc}, \"workloads\": {{{}}}}}",
        args.seed,
        args.seconds,
        entries.join(", ")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match args.workload.clone() {
        Some(name) => one(&name, &args),
        None => all(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("ff_bench: a correctness check failed");
            ExitCode::from(1)
        }
        Err(message) => {
            eprintln!("ff_bench: {message}");
            ExitCode::from(2)
        }
    }
}
