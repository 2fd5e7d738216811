//! The repository benchmark. One workload per run:
//!
//! ```text
//! rtgcn-perfbench --workload <fit-backtest|serve-mix|stream-advance>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off; `--trace
//! 1` turns the crates' telemetry on, times calls into each module from
//! here, and reports the per-layer metrics. Human-readable lines go first;
//! the last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Any wrong output makes the exit
//! code non-zero. See README.md for the workloads and metrics.

mod common;
mod fit_backtest;
mod http;
mod serve_mix;
mod stats;
mod stream_advance;

use common::{Report, END_TO_END, LAYERS};
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["fit-backtest", "serve-mix", "stream-advance"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// First line of `/proc/cpuinfo`'s `model name`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&serde::Value::Str(s.to_string())).unwrap_or_else(|_| "\"\"".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error[perfbench]: {e}");
            return ExitCode::from(2);
        }
    };
    // The program under test runs at its defaults: no inherited knobs.
    for var in [
        "RTGCN_LOG",
        "RTGCN_FUSED",
        "RTGCN_MONITOR",
        "RTGCN_STREAM_REFIT_EVERY",
        "RTGCN_STREAM_DRIFT",
    ] {
        std::env::remove_var(var);
    }
    // Single-threaded kernels: the reference box is single-core, so
    // kernel threading must not count as a gain.
    std::env::set_var("RTGCN_THREADS", "1");
    rtgcn_telemetry::set_level(if args.trace {
        rtgcn_telemetry::Level::Summary
    } else {
        rtgcn_telemetry::Level::Off
    });

    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "stamp: workload={} seed={} seconds={} trace={} nproc={nproc} cpu=\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        cpu_model(),
    );
    let report = match args.workload.as_str() {
        "fit-backtest" => fit_backtest::run(args.seed, args.trace, &fit_backtest::FULL),
        "serve-mix" => serve_mix::run(args.seed, args.seconds, args.trace),
        "stream-advance" => stream_advance::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("validated workload"),
    };
    print_report(&args, report)
}

fn print_report(args: &Args, report: Report) -> ExitCode {
    let mut correct = report.errors.is_empty();
    for e in &report.errors {
        eprintln!("error[perfbench]: {}: {e}", args.workload);
    }
    for note in &report.notes {
        println!("note: {note}");
    }
    if let Some(d) = &report.digest {
        println!("digest: {d}");
    }
    let mut metrics = Vec::new();
    if args.trace {
        for l in LAYERS {
            let v = report.layers.get(l.name).copied().unwrap_or(0.0);
            println!(
                "layer {:<30} {:>14.6} {:<8} moves {}; no change on {}",
                l.name, v, l.unit, l.moves, l.no_change
            );
            metrics.push((l.name, v, l.unit));
        }
        for e in &report.end_to_end {
            println!(
                "traced {:<18} {:>14.6} n={:<6} ({}; {})",
                e.name, e.value, e.samples, e.alias, e.detail
            );
        }
    } else {
        for (name, unit) in END_TO_END {
            match report.end_to_end.iter().find(|e| e.name == name) {
                Some(e) => {
                    println!(
                        "metric {name:<18} {:>14.6} {unit:<4} n={:<6} ({}; {})",
                        e.value, e.samples, e.alias, e.detail
                    );
                    metrics.push((name, e.value, unit));
                }
                None => {
                    eprintln!(
                        "error[perfbench]: {}: metric {name} was not measured",
                        args.workload
                    );
                    correct = false;
                }
            }
        }
    }
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            eprintln!(
                "error[perfbench]: {}: metric {name} is not finite",
                args.workload
            );
            correct = false;
        }
    }
    println!(
        "fail_frac: {:.6} ({} of {} operations failed)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// `BENCHMARK.json` must list exactly the metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec: Value =
            serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
                .expect("BENCHMARK.json is JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Value::as_seq)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Value::as_str)
                            .expect("name and unit")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |v: Vec<(&str, &str)>| {
            v.into_iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END.to_vec()));
        assert_eq!(
            names("per_layer"),
            own(LAYERS.iter().map(|l| (l.name, l.unit)).collect())
        );
        for w in spec
            .get("workloads")
            .and_then(Value::as_seq)
            .expect("workloads")
        {
            let name = w
                .get("name")
                .and_then(Value::as_str)
                .expect("workload name");
            assert!(
                WORKLOADS.contains(&name),
                "{name} is not a workload of this program"
            );
        }
    }
}
