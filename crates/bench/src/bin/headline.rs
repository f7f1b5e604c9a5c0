//! Headline comparison: every scheduler on one trace at high load, with
//! full counter visibility (debug/analysis aid and summary table).

use phoenix_bench::{run_many, summarize, RunSpec, Scale, SchedulerKind};
use phoenix_metrics::Table;
use phoenix_traces::TraceProfile;

fn main() {
    let scale = Scale::from_args();
    let trace_name = std::env::args()
        .skip_while(|a| a != "--trace")
        .nth(1)
        .unwrap_or_else(|| "google".to_string());
    let profile = TraceProfile::by_name(&trace_name).expect("known trace");
    let nodes = scale.nodes_for(&profile);
    println!(
        "== headline ({}, {} nodes, target util 0.92, {} jobs, {} seeds) ==",
        profile.name, nodes, scale.jobs, scale.seeds
    );
    let mut table = Table::new(vec![
        "scheduler",
        "util %",
        "short p50",
        "short p90",
        "short p99",
        "constr short p99",
        "unconstr short p99",
        "long p99",
        "crv reorders",
        "failed",
    ]);
    for kind in [
        SchedulerKind::Phoenix,
        SchedulerKind::PhoenixNoCrv,
        SchedulerKind::PhoenixNoAdmission,
        SchedulerKind::EagleC,
        SchedulerKind::HawkC,
        SchedulerKind::SparrowC,
        SchedulerKind::YaqD,
        SchedulerKind::MercuryC,
        SchedulerKind::MonolithicC,
        SchedulerKind::ChoosyC,
    ] {
        let specs: Vec<RunSpec> = scale
            .seed_list()
            .into_iter()
            .map(|seed| {
                let mut spec = RunSpec::new(profile.clone(), kind).with_seed(seed);
                spec.nodes = nodes;
                spec.gen_nodes = nodes;
                spec.gen_util = 0.92;
                spec.jobs = scale.jobs;
                spec.faults = scale.faults;
                spec
            })
            .collect();
        let s = summarize(&run_many(&specs));
        table.add_row(vec![
            kind.name().to_string(),
            format!("{:.1}", s.utilization * 100.0),
            format!("{:.1}", s.short_response.p50),
            format!("{:.1}", s.short_response.p90),
            format!("{:.1}", s.short_response.p99),
            format!("{:.1}", s.constrained_short_response.p99),
            format!("{:.1}", s.unconstrained_short_response.p99),
            format!("{:.1}", s.long_response.p99),
            s.crv_reordered_tasks.to_string(),
            s.jobs_failed.to_string(),
        ]);
    }
    println!("{table}");
}
