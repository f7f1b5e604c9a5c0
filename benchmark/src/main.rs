//! The repository's benchmark: four named Phoenix workloads, their
//! end-to-end metrics, and a per-layer breakdown timed from outside the
//! engine. See `README.md` beside this package for why each workload and
//! metric exists.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out PATH]
//! ```
//!
//! Each workload runs single-threaded in a child process of this binary, so
//! its peak memory is its own. The untraced child gives the end-to-end
//! metrics; `--trace` adds a traced child whose per-layer metrics replace
//! them in the output. Every metric prints as `workload metric value unit`,
//! and the last line of stdout is one JSON object with all of them.

mod measure;
mod timed;
mod workload;

use std::process::{Command, ExitCode, Stdio};

use measure::{per_layer, Report, END_TO_END};
use workload::{Workload, NAMES};

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--out PATH]";

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    /// Host seconds of untraced passes per workload, the warm-up pass
    /// included (at least one timed pass follows it).
    seconds: f64,
    trace: bool,
    out: Option<String>,
    /// Set in a child process: measure this one workload and report it on
    /// stdout in [`Report`]'s line format.
    child: Option<&'static str>,
}

fn workload_name(name: &str) -> Result<&'static str, String> {
    NAMES
        .into_iter()
        .find(|&n| n == name)
        .ok_or_else(|| format!("unknown workload {name:?}; known: {}", NAMES.join(", ")))
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: NAMES.to_vec(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        out: None,
        child: None,
    };
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workloads = vec![workload_name(&value()?)?],
            "--child" => parsed.child = Some(workload_name(&value()?)?),
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--out" => parsed.out = Some(value()?),
            // A bare `--trace` turns tracing on; `--trace 0|1` sets it.
            "--trace" => {
                parsed.trace = args
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1")
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(parsed)
}

/// Runs one workload's untraced or traced measurement in a child process
/// of this binary and waits for it.
fn spawn(name: &str, args: &Args, traced: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let kind = if traced { "traced" } else { "untraced" };
    let output = Command::new(exe)
        .args(["--child", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{name}: cannot start the {kind} child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{name}: the {kind} child failed ({})",
            output.status
        ));
    }
    Report::parse(&String::from_utf8_lossy(&output.stdout)).map_err(|e| format!("{name}: {e}"))
}

/// One workload's reported metrics: name, unit, value.
type Row = Vec<(String, &'static str, f64)>;

fn measure_workload(name: &str, args: &Args) -> Result<(Report, Row), String> {
    let untraced = spawn(name, args, false)?;
    let row: Row = if args.trace {
        let traced = spawn(name, args, true)?;
        if traced.digest != untraced.digest {
            return Err(format!(
                "{name}: traced digest {:#018x} differs from untraced {:#018x}",
                traced.digest, untraced.digest
            ));
        }
        let overhead = traced.metric("sim.run_s")? / untraced.metric("sim.run_s")? - 1.0;
        per_layer()
            .into_iter()
            .map(|(metric, unit)| {
                let value = match metric.as_str() {
                    "trace.overhead_frac" => overhead,
                    // Throughput is timed on the untraced passes only.
                    "sim.tasks_per_s" => untraced.metric(&metric)?,
                    _ => traced.metric(&metric)?,
                };
                Ok((metric, unit, value))
            })
            .collect::<Result<_, String>>()?
    } else {
        END_TO_END
            .iter()
            .map(|&(metric, unit)| Ok((metric.to_string(), unit, untraced.metric(metric)?)))
            .collect::<Result<_, String>>()?
    };
    Ok((untraced, row))
}

/// The result line. With several workloads each metric name is prefixed
/// with its workload's.
fn result_json(rows: &[(&str, Row)], attempted: u64, failed: u64) -> String {
    let single = rows.len() == 1;
    let metrics: Vec<String> = rows
        .iter()
        .flat_map(|(workload, row)| {
            row.iter().map(move |(metric, unit, value)| {
                let key = if single {
                    metric.clone()
                } else {
                    format!("{workload}/{metric}")
                };
                format!("\"{key}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn run_parent(args: &Args) -> Result<(), String> {
    let mut rows = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for &name in &args.workloads {
        let (untraced, row) = measure_workload(name, args)?;
        for line in &untraced.info {
            println!("info {name} {line}");
        }
        for (metric, unit, value) in &row {
            println!("{name} {metric} {value} {unit}");
        }
        attempted += untraced.attempted;
        failed += untraced.failed;
        rows.push((name, row));
    }
    let json = result_json(&rows, attempted, failed);
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{json}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{json}");
    Ok(())
}

fn run_child(name: &str, args: &Args) -> Result<(), String> {
    let workload = Workload::by_name(name).expect("child names are checked when parsed");
    let report = if args.trace {
        measure::traced(&workload, args.seed)?
    } else {
        measure::untraced(&workload, args.seed, args.seconds)?
    };
    print!("{}", report.to_lines());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.child {
        Some(name) => run_child(name, &args),
        None => run_parent(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One string field of every object in one top-level array of
    /// `BENCHMARK.json`.
    fn field_in(section: &str, key: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("the array closes")];
        body.split(&format!("\"{key}\": \""))
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("the string closes")].to_string())
            .collect()
    }

    #[test]
    fn workload_and_metric_names_match_benchmark_json() {
        assert_eq!(field_in("workloads", "name"), NAMES);
        assert!(NAMES.iter().all(|name| Workload::by_name(name).is_some()));
        let (names, units): (Vec<&str>, Vec<&str>) = END_TO_END.iter().copied().unzip();
        assert_eq!(field_in("end_to_end", "name"), names);
        assert_eq!(field_in("end_to_end", "unit"), units);
        let (names, units): (Vec<String>, Vec<&str>) = per_layer().into_iter().unzip();
        assert_eq!(field_in("per_layer", "name"), names);
        assert_eq!(field_in("per_layer", "unit"), units);
    }

    #[test]
    fn arguments_parse_with_and_without_trace_values() {
        let parse = |line: &str| parse_args(line.split_whitespace().map(String::from));
        let args = parse("--workload yahoo-100k-idle --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(args.workloads, ["yahoo-100k-idle"]);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, false));
        assert!(parse("--trace 1").unwrap().trace);
        assert!(parse("--trace --seed 2").unwrap().trace);
        assert_eq!(parse("").unwrap().workloads, NAMES);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
    }
}
