//! Table II, slowdown column: the *emergent* relative slowdown of jobs
//! carrying each constraint kind, measured from simulation.
//!
//! The paper's Table II reports, per constraint kind, the slowdown of a
//! constrained job w.r.t. an equivalent unconstrained job (ISA 2.03×,
//! cores 1.90×, ..., min-disks 0.91×). Those numbers come from the Google
//! trace itself; here we measure what our synthetic workload *produces*
//! under Eagle-C — a closed-loop check that constraint contention in the
//! simulation causes slowdowns of the right order.

use phoenix_bench::{run_many, RunSpec, Scale, SchedulerKind};
use phoenix_constraints::ConstraintKind;
use phoenix_metrics::Table;
use phoenix_traces::{TraceGenerator, TraceProfile};

fn main() {
    let scale = Scale::from_args();
    let profile = TraceProfile::google();
    let nodes = scale.nodes_for(&profile);
    let specs: Vec<RunSpec> = scale
        .seed_list()
        .into_iter()
        .map(|seed| {
            let mut spec = RunSpec::new(profile.clone(), SchedulerKind::EagleC).with_seed(seed);
            spec.nodes = nodes;
            spec.gen_nodes = nodes;
            spec.gen_util = 0.92;
            spec.jobs = scale.jobs;
            spec
        })
        .collect();
    let results = run_many(&specs);

    // Mean *slowdown* (response / zero-wait ideal) of short jobs grouped by
    // the constraint kinds they carry, against unconstrained short jobs.
    let mut sums = [0.0f64; ConstraintKind::COUNT];
    let mut counts = [0usize; ConstraintKind::COUNT];
    let mut unconstrained_sum = 0.0f64;
    let mut unconstrained_count = 0usize;
    for (result, spec) in results.iter().zip(&specs) {
        // Rebuild the trace to recover each job's constraint kinds (the
        // outcome records only constrained yes/no).
        let trace = TraceGenerator::new(spec.profile.clone(), spec.seed).generate(
            spec.jobs,
            spec.gen_nodes,
            spec.gen_util,
        );
        for (job, outcome) in trace.iter().zip(&result.job_outcomes) {
            debug_assert_eq!(job.id, outcome.job);
            if !outcome.short {
                continue;
            }
            let Some(slowdown) = outcome.slowdown() else {
                continue;
            };
            if job.constraints.is_unconstrained() {
                unconstrained_sum += slowdown;
                unconstrained_count += 1;
            } else {
                for c in job.constraints.iter() {
                    sums[c.kind.index()] += slowdown;
                    counts[c.kind.index()] += 1;
                }
            }
        }
    }
    let unconstrained_mean = unconstrained_sum / unconstrained_count.max(1) as f64;

    println!(
        "== Table II slowdown column: emergent per-kind slowdowns (google, eagle-c, {} nodes) ==",
        nodes
    );
    let mut table = Table::new(vec![
        "task constraint",
        "rel. slowdown (paper)",
        "rel. slowdown (measured)",
        "jobs carrying it",
    ]);
    for kind in ConstraintKind::ALL {
        let n = counts[kind.index()];
        if n == 0 {
            continue;
        }
        let mean = sums[kind.index()] / n as f64;
        let rel = mean / unconstrained_mean.max(1e-9);
        let paper = phoenix_constraints::table_ii_row(kind)
            .map(|r| format!("{:.2}x", r.relative_slowdown))
            .unwrap_or_else(|| "-".into());
        table.add_row(vec![
            kind.to_string(),
            paper,
            format!("{rel:.2}x"),
            n.to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "unconstrained short jobs: {} at mean slowdown {:.2}",
        unconstrained_count, unconstrained_mean
    );
}
