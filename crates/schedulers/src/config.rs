//! Shared configuration for the baseline schedulers.

use phoenix_sim::SimDuration;

/// Fraction of workers reserved for short tasks (the Hawk/Eagle partition):
/// long jobs are placed there only when every feasible worker is reserved.
/// Hawk (ATC'15) keeps the partition small; 10 % follows its guideline.
const RESERVE_FRACTION: f64 = 0.10;

/// Parameters shared by the distributed/hybrid baselines (and reused by
/// Phoenix, which extends Eagle).
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineConfig {
    /// Speculative probes sent per task (§V-A: the paper finds 2 optimal).
    pub probe_ratio: u32,
    /// Short/long classification cutoff on estimated task duration.
    pub short_cutoff: SimDuration,
    /// Starvation bound: how many times a queued probe may be bypassed by
    /// reordering before it becomes un-bypassable (§V-A: 5).
    pub slack_threshold: u32,
}

impl BaselineConfig {
    /// Paper defaults with a trace-specific short/long cutoff in seconds.
    pub fn with_cutoff_s(cutoff_s: f64) -> Self {
        BaselineConfig {
            short_cutoff: SimDuration::from_secs_f64(cutoff_s),
            ..Self::default()
        }
    }

    /// Whether an estimated task duration classifies a job as short.
    pub fn is_short(&self, estimated_task_us: u64) -> bool {
        estimated_task_us <= self.short_cutoff.as_micros()
    }

    /// Number of reserved (short-only) workers on a cluster of `n`.
    pub fn reserved_workers(&self, n: usize) -> usize {
        ((n as f64) * RESERVE_FRACTION).floor() as usize
    }
}

impl Default for BaselineConfig {
    /// Paper defaults: probe ratio 2, slack threshold 5 (§V-A).
    fn default() -> Self {
        BaselineConfig {
            probe_ratio: 2,
            short_cutoff: SimDuration::from_secs(950),
            slack_threshold: 5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = BaselineConfig::default();
        assert_eq!(c.probe_ratio, 2);
        assert_eq!(c.slack_threshold, 5);
    }

    #[test]
    fn short_classification() {
        let c = BaselineConfig::with_cutoff_s(10.0);
        assert!(c.is_short(SimDuration::from_secs(10).as_micros()));
        assert!(!c.is_short(SimDuration::from_secs(11).as_micros()));
    }

    #[test]
    fn reserved_worker_count() {
        let c = BaselineConfig::default();
        assert_eq!(c.reserved_workers(1000), 100);
        assert_eq!(c.reserved_workers(5), 0);
    }
}
