//! Paper-scale wall-clock benchmark: end-to-end run cost at the paper's
//! absolute cluster sizes (Yahoo 5,000 nodes, Cloudera/Google 15,000) over
//! a growing job ladder, with generation, index construction and
//! simulation timed separately and the engine's hot paths profiled.
//!
//! Unlike the figure binaries this bin defaults to node factor **1.0**
//! (the paper's own node counts); `--scale smoke|quick|full` still applies
//! the usual reduced factors for CI smoke runs. `--jobs N` sets the top of
//! the job ladder (default 50,000) and `--seeds N` repeats each point.
//! `--only <profile>/<nodes>/<jobs>` re-measures one ladder row (repeat
//! the flag for several); a federated row's profile reads
//! `yahoo+K<domains>@<staleness ms>ms`, as in the printed table. A key
//! that names no row fails with the list of valid keys. Pair `--only`
//! with `--out`, or the partial result replaces `BENCH_scale.json`.
//!
//! Results go to stdout as a table and to `BENCH_scale.json`
//! (`--out <path>` to redirect) as hand-rolled JSON:
//!
//! ```json
//! {"version": 1, "node_factor": 1.0,
//!  "runs": [{"profile": "yahoo", "scheduler": "phoenix", "nodes": 5000,
//!            "jobs": 50000, "seed": 1, "cluster_gen_s": ..,
//!            "trace_gen_s": .., "index_build_s": .., "sim_s": ..,
//!            "total_s": .., "tasks_completed": .., "tasks_per_sim_s": ..,
//!            "makespan_s": .., "utilization": ..,
//!            "set_cache": {"sets": .., "sets_with_ids": ..,
//!                          "bitset_bytes": .., "id_bytes": ..},
//!            "event_queue": {"peak_pending": .., "peak_probes": ..},
//!            "job_table": {"peak_live": .., "peak_finished": ..},
//!            "digest": "0x..",
//!            "hot_paths": {"dispatch": {"calls": .., "total_ns": ..}, ..}}]}
//! ```
//!
//! The digest is the deterministic run digest: two invocations at the same
//! scale must agree on every digest even though the timings differ.
//! `set_cache` is what the run's set table had built by the end of the
//! run (sets with a bitset, sets with a built id list, and their bytes);
//! it is deterministic too, so it must agree as exactly as the digest.
//! `event_queue` is the run's event-queue high-water marks (most events
//! pending at once, most probes in flight at once), just as deterministic.
//! `job_table` is the run's job-table high-water marks (most job states
//! live at once, and finished-job records held), deterministic as well.
//!
//! Federated rows (the yahoo K-domain ladder, including the 100k-node
//! points) additionally carry `"domains"`, `"staleness_us"`,
//! `"gossip_rounds"`, `"home_samples"`, `"remote_samples"` and
//! `"cluster_fallbacks"`; centralized rows omit them, so the pre-existing
//! baseline rows are byte-compatible. The K=1/staleness=0 federated row is
//! digest-identical to the centralized yahoo row at the same
//! (nodes, jobs, seed) — the parity anchor CI checks.

use std::fmt::Write as _;

use phoenix_bench::{run_specs_parallel, RowFilter, RunSpec, Scale, SchedulerKind};
use phoenix_metrics::Table;
use phoenix_sim::{FederationConfig, ProfileScope, SimDuration};
use phoenix_traces::TraceProfile;

/// Job counts ladder: quarters of the max, deduplicated, ascending.
fn ladder(max_jobs: usize) -> Vec<usize> {
    let mut steps: Vec<usize> = [max_jobs / 8, max_jobs / 4, max_jobs / 2, max_jobs]
        .into_iter()
        .filter(|&j| j > 0)
        .collect();
    steps.dedup();
    steps
}

/// The table's profile cell: the profile name, with federated rows
/// suffixed `+K<domains>@<staleness ms>ms`.
fn profile_label(spec: &RunSpec) -> String {
    if spec.federation.domains > 0 {
        format!(
            "{}+K{}@{}ms",
            spec.profile.name,
            spec.federation.domains,
            spec.federation.staleness.as_micros() / 1_000
        )
    } else {
        spec.profile.name.to_string()
    }
}

/// A ladder row's `--only` key: `<profile label>/<nodes>/<jobs>`.
fn row_key(spec: &RunSpec) -> String {
    format!("{}/{}/{}", profile_label(spec), spec.nodes, spec.jobs)
}

struct ScaleRun {
    spec: RunSpec,
    result: phoenix_sim::SimResult,
    timing: phoenix_bench::RunTiming,
}

fn json_run(out: &mut String, run: &ScaleRun) {
    let r = &run.result;
    let t = &run.timing;
    let tasks = r.counters.tasks_completed;
    let tasks_per_sim_s = if t.sim_s > 0.0 {
        tasks as f64 / t.sim_s
    } else {
        0.0
    };
    write!(
        out,
        "    {{\"profile\": \"{}\", \"scheduler\": \"{}\", \"nodes\": {}, \"jobs\": {}, \
         \"seed\": {}, \"cluster_gen_s\": {:.4}, \"trace_gen_s\": {:.4}, \
         \"index_build_s\": {:.4}, \"sim_s\": {:.4}, \"total_s\": {:.4}, \
         \"tasks_completed\": {}, \"tasks_per_sim_s\": {:.0}, \"makespan_s\": {:.3}, \
         \"utilization\": {:.4}, ",
        run.spec.profile.name,
        run.spec.scheduler.name(),
        run.spec.nodes,
        run.spec.jobs,
        run.spec.seed,
        t.cluster_gen_s,
        t.trace_gen_s,
        t.index_build_s,
        t.sim_s,
        t.total_s(),
        tasks,
        tasks_per_sim_s,
        r.metrics.makespan.as_secs_f64(),
        r.utilization(),
    )
    .expect("writing to String cannot fail");
    // Federation fields appear only on federated rows, so the centralized
    // rows of the committed baseline stay byte-compatible (the CI parity
    // check keys on `(profile, nodes, jobs, seed, domains, staleness_us)`
    // with 0 defaults).
    if run.spec.federation.domains > 0 {
        let stats = r.federation.unwrap_or_default();
        write!(
            out,
            "\"domains\": {}, \"staleness_us\": {}, \"gossip_rounds\": {}, \
             \"home_samples\": {}, \"remote_samples\": {}, \"cluster_fallbacks\": {}, ",
            run.spec.federation.domains,
            run.spec.federation.staleness.as_micros(),
            stats.gossip_rounds,
            stats.home_samples,
            stats.remote_samples,
            stats.cluster_fallbacks,
        )
        .expect("writing to String cannot fail");
    }
    let cache = &r.set_cache;
    let queue = &r.event_queue;
    let jobs = &r.job_table;
    write!(
        out,
        "\"set_cache\": {{\"sets\": {}, \"sets_with_ids\": {}, \"bitset_bytes\": {}, \
         \"id_bytes\": {}}}, \"event_queue\": {{\"peak_pending\": {}, \"peak_probes\": {}}}, \
         \"job_table\": {{\"peak_live\": {}, \"peak_finished\": {}}}, \
         \"digest\": \"{:#018x}\", \"hot_paths\": {{",
        cache.sets,
        cache.sets_with_ids,
        cache.bitset_bytes,
        cache.id_bytes,
        queue.peak_pending,
        queue.peak_probes,
        jobs.peak_live,
        jobs.peak_finished,
        r.digest()
    )
    .expect("writing to String cannot fail");
    if let Some(profile) = &r.profile {
        for (i, scope) in ProfileScope::ALL.iter().enumerate() {
            let totals = profile.scope(*scope);
            write!(
                out,
                "{}\"{}\": {{\"calls\": {}, \"total_ns\": {}}}",
                if i == 0 { "" } else { ", " },
                scope.name(),
                totals.calls,
                totals.total_ns,
            )
            .expect("writing to String cannot fail");
        }
    }
    out.push_str("}}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut scale = Scale::from_args();
    // This bin's default is the paper's absolute node counts, not the
    // figure binaries' quick preset; an explicit --scale keeps its factor.
    if !args.iter().any(|a| a == "--scale") {
        scale.node_factor = 1.0;
    }
    if !args.iter().any(|a| a == "--jobs") {
        scale.jobs = 50_000;
    }
    if !args.iter().any(|a| a == "--seeds") {
        scale.seeds = 1;
    }
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_scale.json")
        .to_string();
    // `--parallel N` fans the scenario batch out over N threads. Results
    // (digests included) are byte-identical to a sequential run — each
    // scenario is deterministic in its spec — but wall-clock timings and
    // therefore tasks/s become contention-noisy, so keep the default
    // sequential when re-blessing the committed baseline.
    let parallel: usize = args
        .iter()
        .position(|a| a == "--parallel")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);

    println!(
        "== scale (node factor {}, job ladder to {}, {} seed(s), {} thread(s)) ==",
        scale.node_factor, scale.jobs, scale.seeds, parallel
    );
    let mut table = Table::new(vec![
        "profile",
        "nodes",
        "jobs",
        "seed",
        "gen (s)",
        "index (s)",
        "sim (s)",
        "total (s)",
        "tasks/s",
        "util %",
    ]);
    let mut specs: Vec<RunSpec> = Vec::new();
    for profile in [
        TraceProfile::yahoo(),
        TraceProfile::cloudera(),
        TraceProfile::google(),
    ] {
        let nodes = scale.nodes_for(&profile);
        // The 15k-node profiles get half the job ladder of Yahoo's 5k so
        // one full invocation stays within the same wall-clock budget.
        let max_jobs = if profile.default_nodes > TraceProfile::yahoo().default_nodes {
            scale.jobs / 2
        } else {
            scale.jobs
        };
        for jobs in ladder(max_jobs.max(1)) {
            for seed in scale.seed_list() {
                let mut spec =
                    RunSpec::new(profile.clone(), SchedulerKind::Phoenix).with_seed(seed);
                spec.nodes = nodes;
                spec.gen_nodes = nodes;
                spec.jobs = jobs;
                spec.gen_util = 0.9;
                // Decorrelate the ladder rows: with a shared generation
                // seed each row's trace is a strict prefix of the next,
                // so one early critical-path job can pin the makespan of
                // *every* row at a profile (google 12.5k and 25k used to
                // report the same makespan to the microsecond). Mixing the
                // job count into the generation seed makes each row an
                // independent workload sample on the same cluster.
                spec.gen_seed = Some(seed ^ (jobs as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                spec.record_task_waits = false;
                spec.faults = scale.faults;
                specs.push(spec.with_profiling());
            }
        }
    }
    // Constraint-depth ladder: the yahoo profile with compositional
    // constraint expressions enabled at depths 1–3 (vector packing →
    // affinity/anti-affinity combinators → combined trees), at a quarter
    // of the job ladder. Pins the wall-clock and digest cost of compiling
    // expression trees to the posting-list index as tree depth grows.
    for depth in 1..=3usize {
        let profile = TraceProfile::yahoo_expr(depth);
        let nodes = scale.nodes_for(&profile);
        let jobs = (scale.jobs / 4).max(1);
        for seed in scale.seed_list() {
            let mut spec = RunSpec::new(profile.clone(), SchedulerKind::Phoenix).with_seed(seed);
            spec.nodes = nodes;
            spec.gen_nodes = nodes;
            spec.jobs = jobs;
            spec.gen_util = 0.9;
            spec.gen_seed = Some(seed ^ (jobs as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            spec.record_task_waits = false;
            spec.faults = scale.faults;
            specs.push(spec.with_profiling());
        }
    }
    // Federated ladder: the yahoo workload sharded into K domains with
    // summary staleness S, at a quarter of the job ladder. The K=1 /
    // staleness=0 row is the centralized-parity anchor — its digest must be
    // byte-identical to the plain yahoo row at the same (nodes, jobs, seed)
    // above, and CI checks exactly that. Two rows stretch the cluster to
    // 100k nodes (× node factor): a centralized K=1 baseline and the
    // hardest federated point (K=16, 2 s staleness) to quantify what
    // eventually-consistent sharding costs at the design's target scale.
    let fed_profile = TraceProfile::yahoo();
    let fed_nodes = scale.nodes_for(&fed_profile);
    let fed_jobs = (scale.jobs / 4).max(1);
    let big_nodes = ((100_000f64 * scale.node_factor).round() as usize).max(32);
    let mut fed_points: Vec<(usize, usize, SimDuration)> = Vec::new();
    for k in [1usize, 4, 16] {
        for staleness in [SimDuration::ZERO, SimDuration::from_secs(2)] {
            fed_points.push((fed_nodes, k, staleness));
        }
    }
    fed_points.push((big_nodes, 1, SimDuration::ZERO));
    fed_points.push((big_nodes, 16, SimDuration::from_secs(2)));
    for &(nodes, k, staleness) in &fed_points {
        for seed in scale.seed_list() {
            let mut spec =
                RunSpec::new(fed_profile.clone(), SchedulerKind::Phoenix).with_seed(seed);
            spec.nodes = nodes;
            spec.gen_nodes = nodes;
            spec.jobs = fed_jobs;
            spec.gen_util = 0.9;
            spec.gen_seed = Some(seed ^ (fed_jobs as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            spec.record_task_waits = false;
            spec.faults = scale.faults;
            spec.federation = FederationConfig::sharded(k, staleness);
            specs.push(spec.with_profiling());
        }
    }
    let keyed = specs
        .into_iter()
        .map(|spec| (row_key(&spec), spec))
        .collect();
    let specs = RowFilter::from_args().select(keyed).unwrap_or_else(|msg| {
        eprintln!("scale: {msg}");
        std::process::exit(2);
    });
    let outcomes = run_specs_parallel(&specs, parallel);
    let mut runs: Vec<ScaleRun> = Vec::new();
    for (spec, (result, timing)) in specs.into_iter().zip(outcomes) {
        let tasks = result.counters.tasks_completed;
        table.add_row(vec![
            profile_label(&spec),
            spec.nodes.to_string(),
            spec.jobs.to_string(),
            spec.seed.to_string(),
            format!("{:.2}", timing.cluster_gen_s + timing.trace_gen_s),
            format!("{:.3}", timing.index_build_s),
            format!("{:.2}", timing.sim_s),
            format!("{:.2}", timing.total_s()),
            format!("{:.0}", tasks as f64 / timing.sim_s.max(1e-9)),
            format!("{:.1}", result.utilization() * 100.0),
        ]);
        runs.push(ScaleRun {
            spec,
            result,
            timing,
        });
    }
    println!("{table}");

    // Hot-path share of the largest run per profile (where it matters).
    for profile in ["yahoo", "cloudera", "google"] {
        if let Some(run) = runs
            .iter()
            .filter(|r| r.spec.profile.name == profile)
            .max_by_key(|r| r.spec.jobs)
        {
            if let Some(p) = &run.result.profile {
                println!("hot paths ({} {} jobs):\n{}", profile, run.spec.jobs, p);
            }
        }
    }

    // Federation cost vs the centralized anchor at the same
    // (nodes, jobs, seed): makespan and utilization degradation, plus how
    // often placement had to leave the home domain.
    let fed_runs: Vec<&ScaleRun> = runs
        .iter()
        .filter(|r| r.spec.federation.is_partitioned())
        .collect();
    if !fed_runs.is_empty() {
        let mut fed_table = Table::new(vec![
            "K",
            "stale (s)",
            "nodes",
            "seed",
            "makespan Δ%",
            "util Δpp",
            "remote",
            "fallback",
        ]);
        for run in fed_runs {
            let baseline = runs.iter().find(|b| {
                !b.spec.federation.is_partitioned()
                    && b.spec.profile.name == run.spec.profile.name
                    && b.spec.nodes == run.spec.nodes
                    && b.spec.jobs == run.spec.jobs
                    && b.spec.seed == run.spec.seed
            });
            let (makespan_delta, util_delta) = match baseline {
                Some(b) => {
                    let base_ms = b.result.metrics.makespan.as_secs_f64();
                    let fed_ms = run.result.metrics.makespan.as_secs_f64();
                    (
                        format!("{:+.2}", (fed_ms - base_ms) / base_ms.max(1e-9) * 100.0),
                        format!(
                            "{:+.2}",
                            (run.result.utilization() - b.result.utilization()) * 100.0
                        ),
                    )
                }
                None => ("-".to_string(), "-".to_string()),
            };
            let stats = run.result.federation.unwrap_or_default();
            fed_table.add_row(vec![
                run.spec.federation.domains.to_string(),
                format!("{:.1}", run.spec.federation.staleness.as_secs_f64()),
                run.spec.nodes.to_string(),
                run.spec.seed.to_string(),
                makespan_delta,
                util_delta,
                stats.remote_samples.to_string(),
                stats.cluster_fallbacks.to_string(),
            ]);
        }
        println!("federated vs centralized (same nodes/jobs/seed):\n{fed_table}");
    }

    let mut json = String::new();
    json.push_str("{\n");
    writeln!(
        json,
        "  \"version\": 1,\n  \"node_factor\": {},\n  \"gen_util\": 0.9,\n  \"runs\": [",
        scale.node_factor
    )
    .expect("writing to String cannot fail");
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        json_run(&mut json, run);
    }
    json.push_str("\n  ]\n}\n");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path} ({} runs)", runs.len());
}
