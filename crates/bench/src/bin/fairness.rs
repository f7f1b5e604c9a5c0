//! Fairness analysis (beyond the paper's plots; §I claims Phoenix "does
//! not affect the fairness ... of the other long and unconstrained jobs").
//!
//! Reports Jain's fairness index over per-job slowdowns (response over the
//! zero-wait ideal), per job group, for every scheduler: CRV reordering
//! must not redistribute latency onto unconstrained or long jobs.

use phoenix_bench::{run_many, RunSpec, Scale, SchedulerKind};
use phoenix_metrics::{jains_index, Table};
use phoenix_sim::JobOutcome;
use phoenix_traces::TraceProfile;

fn index_over(outcomes: &[&JobOutcome]) -> f64 {
    let slowdowns: Vec<f64> = outcomes.iter().filter_map(|o| o.slowdown()).collect();
    jains_index(&slowdowns)
}

fn main() {
    let scale = Scale::from_args();
    let profile = TraceProfile::google();
    let nodes = scale.nodes_for(&profile);
    println!(
        "== fairness: Jain's index over per-job slowdowns (google, {} nodes, high load) ==",
        nodes
    );
    let mut table = Table::new(vec![
        "scheduler",
        "all jobs",
        "short constrained",
        "short unconstrained",
        "long jobs",
        "per-user",
        "mean short slowdown",
    ]);
    for kind in [
        SchedulerKind::Phoenix,
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
                spec
            })
            .collect();
        let results = run_many(&specs);
        let outcomes: Vec<&JobOutcome> =
            results.iter().flat_map(|r| r.job_outcomes.iter()).collect();
        let all = index_over(&outcomes);
        let short_constrained: Vec<&JobOutcome> = outcomes
            .iter()
            .copied()
            .filter(|o| o.short && o.constrained)
            .collect();
        let short_unconstrained: Vec<&JobOutcome> = outcomes
            .iter()
            .copied()
            .filter(|o| o.short && !o.constrained)
            .collect();
        let long: Vec<&JobOutcome> = outcomes.iter().copied().filter(|o| !o.short).collect();
        // Per-user fairness: Jain's index over users' mean slowdowns.
        let per_user = {
            let mut sums: std::collections::HashMap<u32, (f64, usize)> =
                std::collections::HashMap::new();
            for o in &outcomes {
                if let Some(s) = o.slowdown() {
                    let e = sums.entry(o.user).or_insert((0.0, 0));
                    e.0 += s;
                    e.1 += 1;
                }
            }
            let means: Vec<f64> = sums.values().map(|(s, n)| s / *n as f64).collect();
            jains_index(&means)
        };
        let mean_short_slowdown = {
            let s: Vec<f64> = outcomes
                .iter()
                .filter(|o| o.short)
                .filter_map(|o| o.slowdown())
                .collect();
            s.iter().sum::<f64>() / s.len().max(1) as f64
        };
        table.add_row(vec![
            kind.name().to_string(),
            format!("{:.3}", all),
            format!("{:.3}", index_over(&short_constrained)),
            format!("{:.3}", index_over(&short_unconstrained)),
            format!("{:.3}", index_over(&long)),
            format!("{:.3}", per_user),
            format!("{:.2}", mean_short_slowdown),
        ]);
    }
    println!("{table}");
    println!(
        "expectation: Phoenix's fairness indices are at least Eagle-C's —\n\
         the starvation slack prevents CRV reordering from concentrating\n\
         latency on any job group."
    );
}
