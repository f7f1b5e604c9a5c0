//! Phoenix configuration.

use phoenix_schedulers::BaselineConfig;
use phoenix_sim::SimDuration;

/// Phoenix parameters (§IV–§VI of the paper) on top of the shared baseline
/// configuration it inherits from Eagle.
#[derive(Debug, Clone, PartialEq)]
pub struct PhoenixConfig {
    /// Shared hybrid-scheduler parameters (probe ratio, cutoff, slack,
    /// partition, stealing).
    pub baseline: BaselineConfig,
    /// CRV monitor heartbeat (§VI-C: empirically set to 9 s).
    pub heartbeat: SimDuration,
    /// Enables proactive admission control (soft-constraint negotiation);
    /// disable for ablations.
    pub admission_control: bool,
    /// Enables CRV-based reordering; disable for ablations (leaving pure
    /// Eagle-style SRPT).
    pub crv_reordering: bool,
}

impl PhoenixConfig {
    /// Paper defaults with a trace-specific short/long cutoff in seconds.
    pub fn with_cutoff_s(cutoff_s: f64) -> Self {
        PhoenixConfig {
            baseline: BaselineConfig::with_cutoff_s(cutoff_s),
            ..Self::default()
        }
    }
}

impl Default for PhoenixConfig {
    fn default() -> Self {
        PhoenixConfig {
            baseline: BaselineConfig::default(),
            heartbeat: SimDuration::from_secs(9),
            admission_control: true,
            crv_reordering: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = PhoenixConfig::default();
        assert_eq!(c.heartbeat, SimDuration::from_secs(9));
        assert_eq!(c.baseline.probe_ratio, 2);
        assert_eq!(c.baseline.slack_threshold, 5);
        assert!(c.admission_control && c.crv_reordering);
    }

    #[test]
    fn cutoff_helper_sets_baseline_cutoff() {
        let c = PhoenixConfig::with_cutoff_s(42.0);
        assert_eq!(c.baseline.short_cutoff, SimDuration::from_secs(42));
    }
}
