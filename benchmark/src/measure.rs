//! One workload measured in this process: the untraced passes that give the
//! end-to-end metrics, or the traced pass that gives the per-layer ones.

use std::collections::BTreeMap;
use std::time::Instant;

use phoenix_sim::{ProfileScope, SimResult};

use crate::timed::Hook;
use crate::workload::{Inputs, Workload};

/// Set-ups per measurement; `setup_s` and the per-layer set-up times are
/// their medians, so one repeat slowed by the host does not decide them.
const SETUP_REPEATS: usize = 5;

/// A latency percentile must have at least this many samples above it.
const MIN_BEYOND: usize = 10;

/// End-to-end metrics and their units, reported from the untraced child.
/// `s` is host time; `sim_s` is simulated time, which repeats exactly for a
/// given seed. Host throughput is a per-layer metric (`sim.tasks_per_s`):
/// see the README for why it carries no bound.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("short_p50_response_s", "sim_s"),
    ("short_p99_response_s", "sim_s"),
    ("constrained_short_p95_response_s", "sim_s"),
    ("long_p90_response_s", "sim_s"),
];

/// A job-response percentile in simulated seconds over one class of jobs.
struct Latency {
    name: &'static str,
    short: bool,
    constrained_only: bool,
    percentile: f64,
}

const LATENCIES: [Latency; 4] = [
    Latency {
        name: "short_p50_response_s",
        short: true,
        constrained_only: false,
        percentile: 50.0,
    },
    Latency {
        name: "short_p99_response_s",
        short: true,
        constrained_only: false,
        percentile: 99.0,
    },
    Latency {
        name: "constrained_short_p95_response_s",
        short: true,
        constrained_only: true,
        percentile: 95.0,
    },
    Latency {
        name: "long_p90_response_s",
        short: false,
        constrained_only: false,
        percentile: 90.0,
    },
];

/// Per-layer metrics and their units, reported from the traced pass.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed = |names: &[(&str, &'static str)]| {
        names
            .iter()
            .map(|&(name, unit)| (name.to_string(), unit))
            .collect::<Vec<_>>()
    };
    let mut names = fixed(&[
        ("traces.generate_s", "s"),
        ("constraints.population_s", "s"),
        ("constraints.index_build_s", "s"),
        ("sim.tasks_per_s", "tasks/s"),
        ("sim.run_s", "s"),
        ("sim.engine_self_s", "s"),
        ("sim.dispatch_s", "s"),
        ("sim.dispatch_calls", "count"),
        ("sim.dispatch_us_per_call", "us"),
        ("sim.sample_s", "s"),
        ("sim.sample_calls", "count"),
        ("sim.sample_us_per_call", "us"),
        ("sim.event_pop_s", "s"),
        ("sim.events", "count"),
        ("sim.steal_s", "s"),
        ("sim.steal_calls", "count"),
        ("sim.steal_hit_ratio", "ratio"),
        ("sim.probes_sent", "count"),
        ("sim.useful_probe_ratio", "ratio"),
        ("sim.worker_crashes", "count"),
        ("sim.tasks_killed", "count"),
        ("sim.probe_retries", "count"),
        ("sim.probes_lost", "count"),
        ("federation.gossip_rounds", "count"),
        ("federation.home_samples", "count"),
        ("federation.remote_samples", "count"),
        ("federation.cluster_fallbacks", "count"),
        ("federation.home_ratio", "ratio"),
    ]);
    for hook in Hook::ALL {
        names.push((format!("core.{}_calls", hook.name()), "count"));
        names.push((format!("core.{}_s", hook.name()), "s"));
    }
    names.extend(fixed(&[
        ("core.hooks_s", "s"),
        ("core.heartbeat_refresh_s", "s"),
        ("core.reorder_s", "s"),
        ("core.reorder_calls", "count"),
        ("core.crv_reordered_tasks", "count"),
        ("core.crv_insertions", "count"),
        ("core.srpt_reordered_tasks", "count"),
        ("core.starvation_suppressions", "count"),
        ("core.migrated_probes", "count"),
        ("core.relaxed_tasks", "count"),
        ("trace.overhead_frac", "ratio"),
    ]));
    names
}

/// What a measurement hands back: the run's digest, its job counts, its
/// metrics by name, and lines printed for information only.
pub struct Report {
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    pub info: Vec<String>,
}

impl Report {
    fn new(result: &SimResult) -> Report {
        Report {
            digest: result.digest(),
            attempted: result.job_outcomes.len() as u64,
            failed: result.counters.jobs_failed + result.incomplete_jobs as u64,
            metrics: BTreeMap::new(),
            info: vec![format!("digest {:#018x}", result.digest())],
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn metric(&self, name: &str) -> Result<f64, String> {
        self.metrics
            .get(name)
            .copied()
            .ok_or_else(|| format!("no metric {name} measured"))
    }

    /// The line format a child process prints to its parent.
    pub fn to_lines(&self) -> String {
        let mut out = format!(
            "digest {:#x}\nattempted {}\nfailed {}\n",
            self.digest, self.attempted, self.failed
        );
        for (name, value) in &self.metrics {
            out.push_str(&format!("metric {name} {value}\n"));
        }
        for line in &self.info {
            out.push_str(&format!("info {line}\n"));
        }
        out
    }

    /// Reads what [`Report::to_lines`] wrote.
    pub fn parse(text: &str) -> Result<Report, String> {
        let mut report = Report {
            digest: 0,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            info: Vec::new(),
        };
        for line in text.lines() {
            let bad = || format!("unreadable child line {line:?}");
            let (key, rest) = line.split_once(' ').ok_or_else(bad)?;
            match key {
                "digest" => {
                    let hex = rest.strip_prefix("0x").ok_or_else(bad)?;
                    report.digest = u64::from_str_radix(hex, 16).map_err(|_| bad())?;
                }
                "attempted" => report.attempted = rest.parse().map_err(|_| bad())?,
                "failed" => report.failed = rest.parse().map_err(|_| bad())?,
                "metric" => {
                    let (name, value) = rest.split_once(' ').ok_or_else(bad)?;
                    let value: f64 = value.parse().map_err(|_| bad())?;
                    if !value.is_finite() {
                        return Err(bad());
                    }
                    report.set(name, value);
                }
                "info" => report.info.push(rest.to_string()),
                _ => return Err(bad()),
            }
        }
        if report.attempted == 0 {
            return Err("child reported no jobs".into());
        }
        Ok(report)
    }
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Every task of every job that was not failed ran to completion.
fn check_complete(result: &SimResult) -> Result<(), String> {
    if result.lost_tasks > 0 {
        return Err(format!("{} tasks were lost", result.lost_tasks));
    }
    if result.incomplete_jobs > 0 {
        return Err(format!(
            "{} jobs that were not failed never completed",
            result.incomplete_jobs
        ));
    }
    Ok(())
}

/// Nearest-rank percentile of one class's job responses, with the sample
/// count and the number of samples above it.
fn latency(result: &SimResult, latency: &Latency) -> Result<(f64, usize, usize), String> {
    let mut samples: Vec<f64> = result
        .job_outcomes
        .iter()
        .filter(|o| o.short == latency.short && (o.constrained || !latency.constrained_only))
        .filter_map(|o| o.response_s)
        .collect();
    samples.sort_by(f64::total_cmp);
    let rank = (latency.percentile / 100.0 * samples.len() as f64).ceil() as usize;
    let beyond = samples.len().saturating_sub(rank);
    if rank == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "{}: {beyond} of {} samples lie beyond the percentile, fewer than {MIN_BEYOND}",
            latency.name,
            samples.len()
        ));
    }
    Ok((samples[rank - 1], samples.len(), beyond))
}

/// The process's peak resident set, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read the process status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|value| value.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "the process status has no VmHWM line".into())
}

/// Median host seconds of the repeated set-ups.
struct SetupTimes {
    population_s: f64,
    trace_s: f64,
    index_s: f64,
    total_s: f64,
}

/// Sets up [`SETUP_REPEATS`] times, checking that every repeat produced the
/// first one's inputs; returns those inputs and the median times.
fn repeated_setup(workload: &Workload) -> Result<(Inputs, SetupTimes), String> {
    let mut first: Option<Inputs> = None;
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let (inputs, layer_s) = workload.setup();
        times.push(layer_s);
        match &first {
            None => first = Some(inputs),
            Some(first) if !first.same_as(&inputs) => {
                return Err("repeated set-ups produced different clusters or traces".into())
            }
            Some(_) => {}
        }
    }
    let median_of = |f: fn(&[f64; 3]) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    let times = SetupTimes {
        population_s: median_of(|t| t[0]),
        trace_s: median_of(|t| t[1]),
        index_s: median_of(|t| t[2]),
        total_s: median_of(|t| t.iter().sum()),
    };
    Ok((first.expect("at least one set-up"), times))
}

/// Sets up, simulates a warm-up pass that gives the simulated metrics, then
/// simulates timed passes until another pass of median length would carry
/// the whole run of passes past `seconds` (at least one timed pass).
pub fn untraced(workload: &Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let (inputs, setup) = repeated_setup(workload)?;
    let started = Instant::now();
    // The warm-up pass faults in the heap that later passes reuse, so it is
    // checked and measured but not timed.
    let first = workload.simulate(&inputs, seed, false);
    check_complete(&first.result)?;
    // Read before any further pass: the allocator's high-water mark creeps
    // up with each pass, and the pass count follows the host's speed.
    let peak_rss_mb = peak_rss_mb()?;
    let mut run_s = Vec::new();
    while run_s.is_empty() || started.elapsed().as_secs_f64() + median(&run_s) <= seconds {
        let pass = workload.simulate(&inputs, seed, false);
        if pass.result.digest() != first.result.digest() {
            return Err("two passes over the same inputs digest differently".into());
        }
        run_s.push(pass.run_s);
    }
    let result = &first.result;
    let tasks = result.counters.tasks_completed as f64;
    let throughputs: Vec<f64> = run_s.iter().map(|s| tasks / s).collect();

    let mut report = Report::new(result);
    report.info.push(format!(
        "tasks {} setup_repeats {SETUP_REPEATS} warmup_run_s {:.3} pass_run_s {run_s:.3?}",
        result.counters.tasks_completed, first.run_s
    ));
    report.set("sim.tasks_per_s", median(&throughputs));
    report.set("setup_s", setup.total_s);
    report.set("sim.run_s", median(&run_s));
    for l in &LATENCIES {
        let (value, samples, beyond) = latency(result, l)?;
        report.set(l.name, value);
        report
            .info
            .push(format!("{} samples {samples} beyond {beyond}", l.name));
    }
    report.set("peak_rss_mb", peak_rss_mb);
    Ok(report)
}

/// Sets up [`SETUP_REPEATS`] times, then simulates one pass with every
/// scheduler hook timed and the engine's profiler on.
pub fn traced(workload: &Workload, seed: u64) -> Result<Report, String> {
    let (inputs, setup) = repeated_setup(workload)?;
    let pass = workload.simulate(&inputs, seed, true);
    let result = &pass.result;
    check_complete(result)?;
    let profile = result.profile.expect("a timed pass enables the profiler");
    let hooks = pass.hooks.expect("a timed pass fills the hook table");
    let counters = result.counters;
    let federation = result.federation.unwrap_or_default();
    let scope_s = |scope| profile.scope(scope).total_ns as f64 / 1e9;
    let calls = |scope| profile.scope(scope).calls;
    let us_per_call =
        |scope| profile.scope(scope).total_ns as f64 / 1e3 / calls(scope).max(1) as f64;
    let hooks_s = hooks.iter().map(|h| h.ns as f64 / 1e9).sum::<f64>();

    let mut report = Report::new(result);
    for (name, value) in [
        ("traces.generate_s", setup.trace_s),
        ("constraints.population_s", setup.population_s),
        ("constraints.index_build_s", setup.index_s),
        ("sim.run_s", pass.run_s),
        ("sim.engine_self_s", pass.run_s - hooks_s),
        ("sim.dispatch_s", scope_s(ProfileScope::Dispatch)),
        ("sim.dispatch_calls", calls(ProfileScope::Dispatch) as f64),
        (
            "sim.dispatch_us_per_call",
            us_per_call(ProfileScope::Dispatch),
        ),
        ("sim.sample_s", scope_s(ProfileScope::Sample)),
        ("sim.sample_calls", calls(ProfileScope::Sample) as f64),
        ("sim.sample_us_per_call", us_per_call(ProfileScope::Sample)),
        ("sim.event_pop_s", scope_s(ProfileScope::EventPop)),
        ("sim.events", calls(ProfileScope::HandleEvent) as f64),
        ("sim.steal_s", scope_s(ProfileScope::Steal)),
        ("sim.steal_calls", calls(ProfileScope::Steal) as f64),
        (
            "sim.steal_hit_ratio",
            ratio(counters.stolen_probes, calls(ProfileScope::Steal)),
        ),
        ("sim.probes_sent", counters.probes_sent as f64),
        (
            "sim.useful_probe_ratio",
            ratio(counters.tasks_completed, counters.probes_sent),
        ),
        ("sim.worker_crashes", counters.worker_crashes as f64),
        ("sim.tasks_killed", counters.tasks_killed as f64),
        ("sim.probe_retries", counters.probe_retries as f64),
        ("sim.probes_lost", counters.probes_lost as f64),
        ("federation.gossip_rounds", federation.gossip_rounds as f64),
        ("federation.home_samples", federation.home_samples as f64),
        (
            "federation.remote_samples",
            federation.remote_samples as f64,
        ),
        (
            "federation.cluster_fallbacks",
            federation.cluster_fallbacks as f64,
        ),
        (
            "federation.home_ratio",
            ratio(
                federation.home_samples,
                federation.home_samples + federation.remote_samples + federation.cluster_fallbacks,
            ),
        ),
        ("core.hooks_s", hooks_s),
        (
            "core.heartbeat_refresh_s",
            scope_s(ProfileScope::HeartbeatRefresh),
        ),
        ("core.reorder_s", scope_s(ProfileScope::Reorder)),
        ("core.reorder_calls", calls(ProfileScope::Reorder) as f64),
        (
            "core.crv_reordered_tasks",
            counters.crv_reordered_tasks as f64,
        ),
        ("core.crv_insertions", counters.crv_insertions as f64),
        (
            "core.srpt_reordered_tasks",
            counters.srpt_reordered_tasks as f64,
        ),
        (
            "core.starvation_suppressions",
            counters.starvation_suppressions as f64,
        ),
        ("core.migrated_probes", counters.migrated_probes as f64),
        ("core.relaxed_tasks", counters.relaxed_tasks as f64),
    ] {
        report.set(name, value);
    }
    for hook in Hook::ALL {
        let totals = hooks[hook as usize];
        report.set(&format!("core.{}_calls", hook.name()), totals.calls as f64);
        report.set(&format!("core.{}_s", hook.name()), totals.ns as f64 / 1e9);
    }
    Ok(report)
}
