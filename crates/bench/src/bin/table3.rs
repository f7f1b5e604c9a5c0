//! Table III: CRV reordering statistics — per trace, the constrained /
//! unconstrained task counts, the number of tasks CRV actually reordered,
//! and the short-job share.

use phoenix_bench::{run_many, RunSpec, Scale, SchedulerKind};
use phoenix_metrics::Table;
use phoenix_traces::{TraceGenerator, TraceProfile, TraceStats};

fn main() {
    let scale = Scale::from_args();
    println!("== Table III: CRV reordering statistics (phoenix, high load) ==");
    let mut table = Table::new(vec![
        "workload",
        "nodes",
        "constrained tasks",
        "unconstrained tasks",
        "reordered tasks",
        "crv insertions",
        "short jobs",
    ]);
    for profile in TraceProfile::all() {
        let nodes = scale.nodes_for(&profile);
        // Trace statistics (constrained/unconstrained task counts) come from
        // the trace itself; reorder counts come from the Phoenix runs.
        let trace = TraceGenerator::new(profile.clone(), 1).generate(scale.jobs, nodes, 0.92);
        let stats = TraceStats::measure(&trace, 10.0);
        let specs: Vec<RunSpec> = scale
            .seed_list()
            .into_iter()
            .map(|seed| {
                let mut spec =
                    RunSpec::new(profile.clone(), SchedulerKind::Phoenix).with_seed(seed);
                spec.nodes = nodes;
                spec.gen_nodes = nodes;
                spec.gen_util = 0.92;
                spec.jobs = scale.jobs;
                spec
            })
            .collect();
        let results = run_many(&specs);
        let reordered: u64 = results
            .iter()
            .map(|r| r.counters.crv_reordered_tasks)
            .sum::<u64>()
            / results.len() as u64;
        let insertions: u64 = results
            .iter()
            .map(|r| r.counters.crv_insertions)
            .sum::<u64>()
            / results.len() as u64;
        table.add_row(vec![
            profile.name.to_string(),
            nodes.to_string(),
            stats.constrained_tasks.to_string(),
            stats.unconstrained_tasks.to_string(),
            reordered.to_string(),
            insertions.to_string(),
            format!("{:.2}%", stats.short_job_fraction * 100.0),
        ]);
    }
    println!("{table}");
}
