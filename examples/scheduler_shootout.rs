//! Scheduler shootout: run the same workload under Phoenix and all four
//! baselines and compare short-job tail latencies — a miniature of the
//! paper's Figs. 7/10/11 on one trace.
//!
//! ```sh
//! cargo run --release --example scheduler_shootout [-- yahoo|cloudera|google]
//! ```

use phoenix::prelude::*;

fn main() {
    let trace_name = std::env::args().nth(1).unwrap_or_else(|| "yahoo".into());
    let profile = TraceProfile::by_name(&trace_name).expect("yahoo, cloudera or google");
    let nodes = profile.default_nodes / 20;
    println!(
        "trace {}, {} workers, target utilization 0.9\n",
        profile.name, nodes
    );

    let kinds = [
        SchedulerKind::Phoenix,
        SchedulerKind::EagleC,
        SchedulerKind::HawkC,
        SchedulerKind::SparrowC,
        SchedulerKind::YaqD,
    ];
    let specs: Vec<RunSpec> = kinds
        .iter()
        .map(|&kind| {
            let mut spec = RunSpec::new(profile.clone(), kind);
            spec.nodes = nodes;
            spec.gen_nodes = nodes;
            spec.gen_util = 0.9;
            spec.jobs = 6_000;
            spec.seed = 11;
            spec
        })
        .collect();
    let results = run_many(&specs);

    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>10} {:>12}",
        "scheduler", "util %", "p50 (s)", "p90 (s)", "p99 (s)", "vs phoenix"
    );
    let phoenix_p99 = results[0].class_response_percentile(JobClass::Short, 99.0);
    for r in &results {
        let p99 = r.class_response_percentile(JobClass::Short, 99.0);
        println!(
            "{:<10} {:>8.1} {:>10.1} {:>10.1} {:>10.1} {:>11.2}x",
            r.scheduler,
            r.utilization() * 100.0,
            r.class_response_percentile(JobClass::Short, 50.0),
            r.class_response_percentile(JobClass::Short, 90.0),
            p99,
            p99 / phoenix_p99,
        );
    }
}
