//! Shared sweep execution and table printing for the figure binaries.

use phoenix_metrics::{render_chart, Series, Table};
use phoenix_traces::TraceProfile;

use crate::args::Scale;
use crate::runner::{run_many, RunSpec, SchedulerKind};
use crate::summary::{summarize, Summary};

/// Cluster-size multipliers for the utilization sweeps of Figs. 7–11.
///
/// The paper varies the Google cluster from 15,000 to 19,000 nodes against
/// a fixed workload, dropping average utilization from ~86 % to ~43 %; the
/// same spread needs a wider factor range in our synthetic traces, so we
/// grow the cluster up to 2× while holding the workload fixed.
pub const SWEEP_FACTORS: [f64; 5] = [1.0, 1.15, 1.3, 1.6, 2.0];

/// One sweep point: every scheduler's seed-averaged summary at one cluster
/// size.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Cluster size at this point.
    pub nodes: usize,
    /// One summary per requested scheduler, in input order.
    pub summaries: Vec<Summary>,
}

/// Runs `kinds` across the [`SWEEP_FACTORS`] cluster sizes on `profile`,
/// with the workload calibrated to `gen_util` at the base size (so larger
/// clusters see proportionally lower load). All runs execute in parallel.
pub fn sweep(
    profile: &TraceProfile,
    kinds: &[SchedulerKind],
    scale: &Scale,
    gen_util: f64,
) -> Vec<SweepPoint> {
    let base = scale.nodes_for(profile);
    let seeds = scale.seed_list();
    let mut specs = Vec::new();
    for &factor in &SWEEP_FACTORS {
        let nodes = ((base as f64) * factor).round() as usize;
        for &kind in kinds {
            for &seed in &seeds {
                let mut spec = RunSpec::new(profile.clone(), kind)
                    .with_nodes(nodes)
                    .with_seed(seed);
                spec.jobs = scale.jobs;
                spec.gen_nodes = base;
                spec.gen_util = gen_util;
                specs.push(spec);
            }
        }
    }
    let results = run_many(&specs);
    let per_point = kinds.len() * seeds.len();
    SWEEP_FACTORS
        .iter()
        .enumerate()
        .map(|(pi, &factor)| {
            let nodes = ((base as f64) * factor).round() as usize;
            let block = &results[pi * per_point..(pi + 1) * per_point];
            let summaries = kinds
                .iter()
                .enumerate()
                .map(|(ki, _)| {
                    let runs: Vec<_> = block[ki * seeds.len()..(ki + 1) * seeds.len()].to_vec();
                    summarize(&runs)
                })
                .collect();
            SweepPoint { nodes, summaries }
        })
        .collect()
}

/// Prints a Figs. 7–11 style table: per sweep point, the percentiles of
/// `subject` (index 0) normalized to `baseline` (index 1), for the class
/// selected by `triple`.
pub fn print_normalized_sweep(
    title: &str,
    points: &[SweepPoint],
    triple: impl Fn(&Summary) -> crate::summary::PercentileTriple,
) {
    println!("== {title} ==");
    let mut table = Table::new(vec![
        "nodes",
        "avg util %",
        "norm p50",
        "norm p90",
        "norm p99",
        "subject p99 (s)",
        "baseline p99 (s)",
    ]);
    let mut p99_curve = Vec::new();
    for point in points {
        let subject = &point.summaries[0];
        let baseline = &point.summaries[1];
        let n = triple(subject).normalized_to(&triple(baseline));
        p99_curve.push((subject.utilization * 100.0, n.p99));
        table.add_row(vec![
            point.nodes.to_string(),
            format!("{:.1}", subject.utilization * 100.0),
            format!("{:.3}", n.p50),
            format!("{:.3}", n.p90),
            format!("{:.3}", n.p99),
            format!("{:.2}", triple(subject).p99),
            format!("{:.2}", triple(baseline).p99),
        ]);
    }
    println!("{table}");
    let parity: Vec<(f64, f64)> = p99_curve.iter().map(|&(u, _)| (u, 1.0)).collect();
    print!(
        "{}",
        render_chart(
            "normalized p99 vs utilization % (-: parity)",
            &[
                Series::new("normalized p99", p99_curve),
                Series::new("-", parity)
            ],
            64,
            12,
        )
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_one_point_per_factor() {
        let scale = Scale {
            node_factor: 0.012,
            jobs: 300,
            seeds: 1,
            faults: phoenix_sim::FaultPlan::none(),
        };
        let points = sweep(
            &TraceProfile::yahoo(),
            &[SchedulerKind::Phoenix, SchedulerKind::EagleC],
            &scale,
            0.7,
        );
        assert_eq!(points.len(), SWEEP_FACTORS.len());
        for p in &points {
            assert_eq!(p.summaries.len(), 2);
            assert!(p.summaries[0].jobs_completed > 0);
        }
        // Larger clusters see lower utilization (fixed workload).
        assert!(points[0].summaries[1].utilization > points[4].summaries[1].utilization);
    }
}
