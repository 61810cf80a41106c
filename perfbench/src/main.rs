//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--repeat <N>] [--destinations <N>]
//! ```
//!
//! One run builds the workload's synthetic Internet from `--seed`,
//! calls its campaign for `--seconds`, checks the outputs against the
//! generator's planted truth, and prints every metric by name with its
//! unit. The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`,
//! holding the end-to-end metrics with `--trace 0` and the per-layer
//! metrics of the layer replay with `--trace 1`.
//!
//! `--destinations N` overrides the workload's destination count, for
//! reference sweeps of throughput against network size; results taken
//! with it are not the workload's.
//!
//! `--repeat N` runs the workload N times, each in its own process with
//! seeds `seed, seed+1, ...`, and prints each metric's median and
//! quartiles.

mod layers;
mod measure;
mod replay;
mod workload;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use measure::quartiles;
use workload::{run_workload, Outcome, Workload, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--repeat <N>] [--destinations <N>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<u32>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let name = match flag.as_str() {
            f @ ("--workload" | "--seed" | "--seconds" | "--trace" | "--repeat"
            | "--destinations") => f,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or_else(|| format!("{name} needs a value"))?;
        flags.insert(name, value);
    }
    let need = |name: &str| flags.get(name).copied().ok_or_else(|| format!("missing {name}"));
    let name = need("--workload")?;
    let mut workload = *WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    let seed = need("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let repeat = match flags.get("--repeat") {
        None => None,
        Some(n) => match n.parse::<u32>() {
            Ok(n) if (2..=100).contains(&n) => Some(n),
            _ => return Err(format!("--repeat must be a count from 2 to 100, got {n:?}")),
        },
    };
    if let Some(n) = flags.get("--destinations") {
        workload.destinations = match n.parse::<usize>() {
            Ok(n) if (1..=100_000).contains(&n) => n,
            _ => return Err(format!("--destinations must be a count from 1 to 100000, got {n:?}")),
        };
    }
    Ok(Args { workload, seed, seconds, trace, repeat })
}

/// A finite JSON number; the metrics are never NaN, but a division by a
/// zero count must not corrupt the result line.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

fn print_outcome(out: &Outcome) {
    for line in &out.notes {
        println!("{line}");
    }
    println!("attempted {}  failed {}  correct {}", out.attempted, out.failed, out.correct);
    for m in &out.metrics {
        println!("metric {} {} {}", m.name, json_number(m.value), m.unit);
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

/// Run the workload `n` times in child processes and summarize.
fn repeat(args: &Args, raw: &[String], n: u32) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut order: Vec<(String, String)> = Vec::new();
    for i in 0..u64::from(n) {
        let seed = args.seed.wrapping_add(i);
        let mut child_args: Vec<String> = Vec::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let value = it.next().expect("parsed flags have values");
            match flag.as_str() {
                "--repeat" => {}
                "--seed" => child_args.extend([flag.clone(), seed.to_string()]),
                _ => child_args.extend([flag.clone(), value.clone()]),
            }
        }
        let output =
            Command::new(&exe).args(&child_args).output().map_err(|e| format!("spawn: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        if !output.status.success() {
            return Err(format!("run with seed {seed} exited with {}", output.status));
        }
        let mut summary = String::new();
        for line in stdout.lines() {
            let mut t = line.split_ascii_whitespace();
            match t.next() {
                Some("metric") => {
                    let (Some(name), Some(value), Some(unit)) = (t.next(), t.next(), t.next())
                    else {
                        continue;
                    };
                    let key = (name.to_owned(), unit.to_owned());
                    if !values.contains_key(&key) {
                        order.push(key.clone());
                    }
                    values.entry(key).or_default().push(value.parse().unwrap_or(f64::NAN));
                }
                Some("attempted") => summary = line.to_owned(),
                _ => {}
            }
        }
        println!("run {} seed {seed}: {summary}", i + 1);
    }
    println!(
        "{:<36} {:>14} {:>14} {:>14} {:>9}  unit  per run",
        "metric", "q1", "median", "q3", "iqr/med"
    );
    for key in &order {
        let v = &values[key];
        let (q1, med, q3) = quartiles(v);
        let spread = if med != 0.0 { (q3 - q1) / med.abs() } else { 0.0 };
        let runs: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
        println!(
            "{:<36} {q1:>14.4} {med:>14.4} {q3:>14.4} {:>8.2}%  {}  {}",
            key.0,
            spread * 100.0,
            key.1,
            runs.join(" ")
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.repeat {
        return match repeat(&args, &raw, n) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("perfbench: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let out = run_workload(&args.workload, args.seed, args.seconds, args.trace);
    if !out.correct {
        eprintln!("perfbench: {} failed its output checks", args.workload.name);
    }
    print_outcome(&out);
    ExitCode::SUCCESS
}
