//! Fig. 4: short-job response times of constrained jobs relative to
//! unconstrained jobs (p50/p90/p99) under Eagle-C, for all three traces.
//!
//! Expected shape (paper): constrained short jobs are ~1.7× slower at the
//! 99th percentile on average, worsening with utilization.

use phoenix_bench::{run_many, summarize, RunSpec, Scale, SchedulerKind};
use phoenix_metrics::Table;
use phoenix_traces::TraceProfile;

fn main() {
    let scale = Scale::from_args();
    println!("== Fig. 4: constrained/unconstrained short-job response ratio (eagle-c) ==");
    let mut table = Table::new(vec!["trace", "p50 ratio", "p90 ratio", "p99 ratio"]);
    for profile in TraceProfile::all() {
        let nodes = scale.nodes_for(&profile);
        let specs: Vec<RunSpec> = scale
            .seed_list()
            .into_iter()
            .map(|seed| {
                let mut spec = RunSpec::new(profile.clone(), SchedulerKind::EagleC).with_seed(seed);
                spec.nodes = nodes;
                spec.gen_nodes = nodes;
                spec.gen_util = 0.9;
                spec.jobs = scale.jobs;
                spec
            })
            .collect();
        let summary = summarize(&run_many(&specs));
        let ratio = summary
            .constrained_short_response
            .normalized_to(&summary.unconstrained_short_response);
        table.add_row(vec![
            profile.name.to_string(),
            format!("{:.2}", ratio.p50),
            format!("{:.2}", ratio.p90),
            format!("{:.2}", ratio.p99),
        ]);
    }
    println!("{table}");
}
