//! Fig. 2: CDF of job queuing times under constraints — Yahoo (a) and
//! Cloudera (b) — for Hawk-C, Eagle-C and Yaq-d, against the unconstrained
//! baseline (the same workload with its constraints stripped).
//!
//! Expected shape (paper): Hawk-C suffers the heaviest queuing delays;
//! Eagle-C and Yaq-d sit 2–2.5× above the unconstrained baseline.

use phoenix_bench::{Scale, SchedulerKind};
use phoenix_constraints::{ConstraintSet, FeasibilityIndex, MachinePopulation};
use phoenix_metrics::{render_chart, Distribution, Series, Table};
use phoenix_sim::{SimConfig, SimResult, Simulation};
use phoenix_traces::{Trace, TraceGenerator, TraceProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_args();
    for profile in [TraceProfile::yahoo(), TraceProfile::cloudera()] {
        run_panel(&profile, &scale);
    }
}

/// Runs one scheduler over a pre-built trace on a pre-built cluster.
fn run_on(
    machines: &[phoenix_constraints::AttributeVector],
    trace: &Trace,
    kind: SchedulerKind,
    cutoff: f64,
    seed: u64,
) -> SimResult {
    Simulation::new(
        SimConfig::default(),
        FeasibilityIndex::new(machines.to_vec()),
        trace,
        kind.build(cutoff),
        seed,
    )
    .run()
}

fn run_panel(profile: &TraceProfile, scale: &Scale) {
    let nodes = scale.nodes_for(profile);
    let cutoff = profile.short_cutoff_s();
    let kinds = [
        SchedulerKind::HawkC,
        SchedulerKind::EagleC,
        SchedulerKind::YaqD,
    ];
    let mut columns: Vec<(String, Distribution)> = kinds
        .iter()
        .map(|k| (k.name().to_string(), Distribution::new()))
        .collect();
    let mut baseline = Distribution::new();
    for seed in scale.seed_list() {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(17));
        let cluster = MachinePopulation::generate(profile.population.clone(), nodes, &mut rng);
        let machines = cluster.into_machines();
        let trace = TraceGenerator::new(profile.clone(), seed).generate(scale.jobs, nodes, 0.9);
        for (ki, &kind) in kinds.iter().enumerate() {
            let r = run_on(&machines, &trace, kind, cutoff, seed);
            columns[ki].1.merge(&r.job_queuing().overall());
        }
        // Baseline: the *same jobs* with their constraints stripped —
        // "the task queuing delay in case of jobs without constraints".
        let stripped = Trace::new(
            trace.name(),
            trace
                .iter()
                .map(|j| {
                    let mut job = j.clone();
                    job.constraints = ConstraintSet::unconstrained();
                    job
                })
                .collect(),
        );
        let r = run_on(&machines, &stripped, SchedulerKind::EagleC, cutoff, seed);
        baseline.merge(&r.job_queuing().overall());
    }
    columns.push(("baseline".to_string(), baseline));

    println!(
        "== Fig. 2 ({}): job queuing time CDF, {} nodes, high load ==",
        profile.name, nodes
    );
    let mut header = vec!["CDF".to_string()];
    header.extend(columns.iter().map(|(n, _)| format!("{n} (s)")));
    let mut table = Table::new(header);
    for pct in [10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0] {
        let mut row = vec![format!("{:.2}", pct / 100.0)];
        for (_, dist) in columns.iter_mut() {
            row.push(format!("{:.2}", dist.percentile(pct)));
        }
        table.add_row(row);
    }
    println!("{table}");

    // Shape view: the CDFs as an ASCII chart (x = queuing seconds,
    // y = cumulative fraction), clipped at p99 to keep the x range useful.
    let clip = columns
        .iter_mut()
        .map(|(_, d)| d.percentile(99.0))
        .fold(0.0f64, f64::max);
    let series: Vec<Series> = columns
        .iter_mut()
        .map(|(name, dist)| {
            let points = dist
                .cdf(64)
                .into_iter()
                .filter(|p| p.value <= clip)
                .map(|p| (p.value, p.fraction))
                .collect();
            Series::new(name.clone(), points)
        })
        .collect();
    print!(
        "{}",
        render_chart("CDF (x: queuing seconds, y: fraction)", &series, 72, 16)
    );
}
