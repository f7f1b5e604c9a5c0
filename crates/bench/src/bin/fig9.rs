//! Fig. 9: job queuing delay (p90/p99) of Phoenix vs. Eagle-C on the Google
//! trace, separately for constrained and unconstrained jobs.
//!
//! Expected shape (paper): Phoenix improves the 99th-percentile queuing
//! delay for *both* groups — constrained jobs stop stalling the
//! unconstrained tasks queued behind them.

use phoenix_bench::{run_many, summarize, RunSpec, Scale, SchedulerKind};
use phoenix_metrics::Table;
use phoenix_traces::TraceProfile;

fn main() {
    let scale = Scale::from_args();
    let profile = TraceProfile::google();
    let nodes = scale.nodes_for(&profile);
    let kinds = [SchedulerKind::Phoenix, SchedulerKind::EagleC];
    let mut summaries = Vec::new();
    for kind in kinds {
        let specs: Vec<RunSpec> = scale
            .seed_list()
            .into_iter()
            .map(|seed| {
                let mut spec = RunSpec::new(profile.clone(), kind).with_seed(seed);
                spec.nodes = nodes;
                spec.gen_nodes = nodes;
                spec.gen_util = 0.92;
                spec.jobs = scale.jobs;
                spec
            })
            .collect();
        summaries.push(summarize(&run_many(&specs)));
    }

    println!(
        "== Fig. 9 (google, {} nodes): short-job queuing delay breakdown ==",
        nodes
    );
    let mut table = Table::new(vec![
        "scheduler",
        "constrained p90 (s)",
        "constrained p99 (s)",
        "unconstrained p90 (s)",
        "unconstrained p99 (s)",
    ]);
    for s in &summaries {
        table.add_row(vec![
            s.scheduler.clone(),
            format!("{:.2}", s.constrained_short_queuing.p90),
            format!("{:.2}", s.constrained_short_queuing.p99),
            format!("{:.2}", s.unconstrained_short_queuing.p90),
            format!("{:.2}", s.unconstrained_short_queuing.p99),
        ]);
    }
    println!("{table}");
    let (p, e) = (&summaries[0], &summaries[1]);
    println!(
        "phoenix improvement: constrained p99 {:.2}x, unconstrained p99 {:.2}x",
        e.constrained_short_queuing.p99 / p.constrained_short_queuing.p99.max(1e-9),
        e.unconstrained_short_queuing.p99 / p.unconstrained_short_queuing.p99.max(1e-9),
    );
}
