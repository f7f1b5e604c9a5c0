//! Seed-averaged result summaries.

use std::fmt;

use phoenix_metrics::{ConstraintStatus, JobClass, LatencyKey};
use phoenix_sim::SimResult;

/// p50/p90/p99 of one latency distribution, seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PercentileTriple {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl PercentileTriple {
    /// Element-wise ratio `self / other` (the "normalized to baseline"
    /// quantity of Figs. 7–11). Zero denominators produce 0.
    pub fn normalized_to(&self, other: &PercentileTriple) -> PercentileTriple {
        let div = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        PercentileTriple {
            p50: div(self.p50, other.p50),
            p90: div(self.p90, other.p90),
            p99: div(self.p99, other.p99),
        }
    }
}

impl fmt::Display for PercentileTriple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p50={:.3} p90={:.3} p99={:.3}",
            self.p50, self.p90, self.p99
        )
    }
}

/// Seed-averaged summary of a set of runs with identical specs (different
/// seeds).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Scheduler name.
    pub scheduler: String,
    /// Cluster size.
    pub nodes: usize,
    /// Measured utilization, averaged.
    pub utilization: f64,
    /// Short-job response-time percentiles.
    pub short_response: PercentileTriple,
    /// Long-job response-time percentiles.
    pub long_response: PercentileTriple,
    /// Short-job queuing-time percentiles.
    pub short_queuing: PercentileTriple,
    /// Constrained-job (all classes) queuing percentiles.
    pub constrained_queuing: PercentileTriple,
    /// Unconstrained-job (all classes) queuing percentiles.
    pub unconstrained_queuing: PercentileTriple,
    /// Constrained short-job response percentiles.
    pub constrained_short_response: PercentileTriple,
    /// Unconstrained short-job response percentiles.
    pub unconstrained_short_response: PercentileTriple,
    /// Constrained short-job queuing percentiles (Fig. 9 reports short
    /// jobs).
    pub constrained_short_queuing: PercentileTriple,
    /// Unconstrained short-job queuing percentiles.
    pub unconstrained_short_queuing: PercentileTriple,
    /// Total CRV-reordered tasks across seeds.
    pub crv_reordered_tasks: u64,
    /// Total completed jobs across seeds.
    pub jobs_completed: u64,
    /// Total failed jobs across seeds.
    pub jobs_failed: u64,
}

fn triple_of(mut d: phoenix_metrics::Distribution) -> PercentileTriple {
    PercentileTriple {
        p50: d.percentile(50.0),
        p90: d.percentile(90.0),
        p99: d.percentile(99.0),
    }
}

/// Summarizes runs of one spec across seeds (percentiles averaged over
/// seeds, counters summed).
///
/// # Panics
///
/// Panics if `results` is empty.
pub fn summarize(results: &[SimResult]) -> Summary {
    assert!(!results.is_empty(), "need at least one run");
    let constrained_short = LatencyKey::new(JobClass::Short, ConstraintStatus::Constrained);
    let unconstrained_short = LatencyKey::new(JobClass::Short, ConstraintStatus::Unconstrained);
    let summaries: Vec<Summary> = results
        .iter()
        .map(|r| {
            let response = r.job_response();
            let queuing = r.job_queuing();
            Summary {
                scheduler: r.scheduler.clone(),
                nodes: r.workers,
                utilization: r.utilization(),
                short_response: triple_of(response.by_class(JobClass::Short)),
                long_response: triple_of(response.by_class(JobClass::Long)),
                short_queuing: triple_of(queuing.by_class(JobClass::Short)),
                constrained_queuing: triple_of(queuing.by_status(ConstraintStatus::Constrained)),
                unconstrained_queuing: triple_of(
                    queuing.by_status(ConstraintStatus::Unconstrained),
                ),
                constrained_short_response: triple_of(response.cell(constrained_short).clone()),
                unconstrained_short_response: triple_of(response.cell(unconstrained_short).clone()),
                constrained_short_queuing: triple_of(queuing.cell(constrained_short).clone()),
                unconstrained_short_queuing: triple_of(queuing.cell(unconstrained_short).clone()),
                crv_reordered_tasks: r.counters.crv_reordered_tasks,
                jobs_completed: r.counters.jobs_completed,
                jobs_failed: r.counters.jobs_failed,
            }
        })
        .collect();
    average_summaries(&summaries)
}

/// Averages percentile fields across summaries (counters are summed).
///
/// # Panics
///
/// Panics if `summaries` is empty.
pub fn average_summaries(summaries: &[Summary]) -> Summary {
    assert!(!summaries.is_empty(), "need at least one summary");
    let n = summaries.len() as f64;
    let avg_triple = |get: &dyn Fn(&Summary) -> PercentileTriple| PercentileTriple {
        p50: summaries.iter().map(|s| get(s).p50).sum::<f64>() / n,
        p90: summaries.iter().map(|s| get(s).p90).sum::<f64>() / n,
        p99: summaries.iter().map(|s| get(s).p99).sum::<f64>() / n,
    };
    Summary {
        scheduler: summaries[0].scheduler.clone(),
        nodes: summaries[0].nodes,
        utilization: summaries.iter().map(|s| s.utilization).sum::<f64>() / n,
        short_response: avg_triple(&|s| s.short_response),
        long_response: avg_triple(&|s| s.long_response),
        short_queuing: avg_triple(&|s| s.short_queuing),
        constrained_queuing: avg_triple(&|s| s.constrained_queuing),
        unconstrained_queuing: avg_triple(&|s| s.unconstrained_queuing),
        constrained_short_response: avg_triple(&|s| s.constrained_short_response),
        unconstrained_short_response: avg_triple(&|s| s.unconstrained_short_response),
        constrained_short_queuing: avg_triple(&|s| s.constrained_short_queuing),
        unconstrained_short_queuing: avg_triple(&|s| s.unconstrained_short_queuing),
        crv_reordered_tasks: summaries.iter().map(|s| s.crv_reordered_tasks).sum(),
        jobs_completed: summaries.iter().map(|s| s.jobs_completed).sum(),
        jobs_failed: summaries.iter().map(|s| s.jobs_failed).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_divides_elementwise() {
        let a = PercentileTriple {
            p50: 1.0,
            p90: 4.0,
            p99: 9.0,
        };
        let b = PercentileTriple {
            p50: 2.0,
            p90: 2.0,
            p99: 3.0,
        };
        let n = a.normalized_to(&b);
        assert_eq!(n.p50, 0.5);
        assert_eq!(n.p90, 2.0);
        assert_eq!(n.p99, 3.0);
        let z = a.normalized_to(&PercentileTriple::default());
        assert_eq!(z.p99, 0.0, "zero denominator yields zero");
    }

    #[test]
    fn averaging_is_arithmetic_mean() {
        let mk = |p99: f64, crv: u64| Summary {
            scheduler: "x".into(),
            short_response: PercentileTriple {
                p99,
                ..Default::default()
            },
            crv_reordered_tasks: crv,
            ..Default::default()
        };
        let avg = average_summaries(&[mk(1.0, 2), mk(3.0, 4)]);
        assert_eq!(avg.short_response.p99, 2.0);
        assert_eq!(avg.crv_reordered_tasks, 6, "counters are summed");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_average_panics() {
        let _ = average_summaries(&[]);
    }
}
