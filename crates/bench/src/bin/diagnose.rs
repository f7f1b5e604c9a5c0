//! Diagnostic tool: runs one configuration and reports the slowest jobs
//! with their constraint sets and feasible-worker counts — used to verify
//! that no constraint class is sustainably oversubscribed.

use phoenix_bench::{Scale, SchedulerKind};
use phoenix_constraints::{FeasibilityIndex, MachinePopulation};
use phoenix_sim::{SimConfig, Simulation};
use phoenix_traces::{TraceGenerator, TraceProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_args();
    let profile_name = std::env::args()
        .skip_while(|a| a != "--trace")
        .nth(1)
        .unwrap_or_else(|| "yahoo".to_string());
    let profile = TraceProfile::by_name(&profile_name).expect("known trace");
    let nodes = scale.nodes_for(&profile);
    let mut rng = StdRng::seed_from_u64(1);
    let cluster = MachinePopulation::generate(profile.population.clone(), nodes, &mut rng);
    let trace = TraceGenerator::new(profile.clone(), 1).generate(scale.jobs, nodes, 0.92);
    let index = FeasibilityIndex::new(cluster.into_machines());

    // Pre-compute feasible counts per distinct constraint set.
    let mut class_load: std::collections::HashMap<String, (usize, f64, usize)> =
        std::collections::HashMap::new();
    for job in &trace {
        let feasible = index.count_feasible(&job.constraints);
        let entry = class_load
            .entry(job.constraints.to_string())
            .or_insert((feasible, 0.0, 0));
        entry.1 += job.total_work_s();
        entry.2 += 1;
    }
    let horizon = trace.horizon_s();
    println!(
        "trace horizon: {horizon:.0}s, nodes {nodes}, jobs {}",
        trace.len()
    );
    println!("\n== classes by offered load ratio (work / (feasible * horizon)) ==");
    let mut rows: Vec<(f64, String, usize, f64, usize)> = class_load
        .into_iter()
        .map(|(set, (feasible, work, jobs))| {
            let rho = if feasible == 0 {
                f64::INFINITY
            } else {
                work / (feasible as f64 * horizon)
            };
            (rho, set, feasible, work, jobs)
        })
        .collect();
    rows.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let infeasible_work: f64 = rows.iter().filter(|r| r.2 == 0).map(|r| r.3).sum();
    println!("hard-infeasible work: {infeasible_work:.0}s (failed at admission)");
    rows.retain(|r| r.2 > 0);
    for (rho, set, feasible, work, jobs) in rows.iter().take(15) {
        println!("rho={rho:8.3} feasible={feasible:5} jobs={jobs:5} work={work:10.0}s  {set}");
    }

    // Keep a copy of constraint info for post-run tail analysis.
    let job_info: Vec<(String, usize, bool)> = trace
        .iter()
        .map(|j| {
            (
                j.constraints.to_string(),
                index.count_feasible(&j.constraints),
                j.short,
            )
        })
        .collect();
    let sched_name = std::env::args()
        .skip_while(|a| a != "--scheduler")
        .nth(1)
        .unwrap_or_else(|| "eagle-c".to_string());
    let kind = match sched_name.as_str() {
        "phoenix" => SchedulerKind::Phoenix,
        "hawk-c" => SchedulerKind::HawkC,
        _ => SchedulerKind::EagleC,
    };
    let sim = Simulation::new(
        SimConfig::default(),
        index,
        &trace,
        kind.build(profile.short_cutoff_s()),
        1,
    );
    let result = sim.run();
    // Tail analysis: the slowest 1% of completed short jobs, grouped by
    // constraint class.
    let mut shorts: Vec<&phoenix_sim::JobOutcome> = result
        .job_outcomes
        .iter()
        .filter(|o| o.short && o.response_s.is_some())
        .collect();
    shorts.sort_by(|a, b| {
        b.response_s
            .partial_cmp(&a.response_s)
            .expect("finite responses")
    });
    let tail_len = (shorts.len() / 100).max(1);
    let mut by_class: std::collections::HashMap<&str, (usize, f64, usize)> =
        std::collections::HashMap::new();
    for o in shorts.iter().take(tail_len) {
        let (set, feas, _) = &job_info[o.job.0 as usize];
        let e = by_class.entry(set.as_str()).or_insert((0, 0.0, *feas));
        e.0 += 1;
        e.1 += o.response_s.expect("completed");
    }
    let mut tail_rows: Vec<_> = by_class.into_iter().collect();
    tail_rows.sort_by_key(|(_, (n, _, _))| std::cmp::Reverse(*n));
    println!("\n== slowest 1% of short jobs ({tail_len}), by class ==");
    for (set, (n, sum, feas)) in tail_rows.iter().take(12) {
        println!(
            "n={n:5}  mean resp={:8.0}s  feasible={feas:5}  {set}",
            sum / *n as f64
        );
    }
    println!(
        "\nutil {:.1}%  makespan {:.0}s  {:?}",
        result.utilization() * 100.0,
        result.metrics.makespan.as_secs_f64(),
        result.counters
    );
    let mut short = result
        .job_response()
        .by_class(phoenix_metrics::JobClass::Short);
    println!(
        "short jobs: p50 {:.2}s p90 {:.2}s p99 {:.2}s max {:.2}s",
        short.percentile(50.0),
        short.percentile(90.0),
        short.percentile(99.0),
        short.max()
    );
}
