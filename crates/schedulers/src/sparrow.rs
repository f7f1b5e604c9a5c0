//! Sparrow-C: fully distributed batch sampling with late binding.
//!
//! Sparrow (Ousterhout et al., SOSP'13) schedules every job the same way —
//! it is agnostic of task runtimes — by placing `probe_ratio × m` probes on
//! randomly sampled workers and letting late binding resolve which queues
//! actually serve tasks. Worker queues are FIFO; there is no reordering and
//! no stealing. The `-C` extension (§III-B of the Phoenix paper) samples
//! only among workers satisfying the task's constraints.

use phoenix_sim::{Scheduler, SimCtx};
use phoenix_traces::JobId;

use crate::config::BaselineConfig;
use crate::placement::{choose_targets, send_speculative_probes};

/// The Sparrow-C scheduler.
#[derive(Debug, Clone)]
pub struct SparrowC {
    config: BaselineConfig,
}

impl SparrowC {
    /// Creates Sparrow-C with the given shared configuration.
    pub fn new(config: BaselineConfig) -> Self {
        SparrowC { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BaselineConfig {
        &self.config
    }
}

impl Scheduler for SparrowC {
    fn name(&self) -> &str {
        "sparrow-c"
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        let (set, tasks) = (ctx.effective(job), ctx.job(job).num_tasks());
        let want = tasks * self.config.probe_ratio as usize;
        match choose_targets(ctx, set, want, |_| false) {
            Some(placement) => send_speculative_probes(ctx, job, &placement, want),
            None => ctx.fail_job(job),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_constraints::{FeasibilityIndex, MachinePopulation};
    use phoenix_metrics::JobClass;
    use phoenix_sim::{SimConfig, Simulation};
    use phoenix_traces::{TraceGenerator, TraceProfile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(jobs: usize, nodes: usize, util: f64, seed: u64) -> phoenix_sim::SimResult {
        let profile = TraceProfile::yahoo();
        let cutoff = profile.short_cutoff_s();
        let mut rng = StdRng::seed_from_u64(seed);
        let cluster = MachinePopulation::generate(profile.population.clone(), nodes, &mut rng);
        let trace = TraceGenerator::new(profile, seed).generate(jobs, nodes, util);
        Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(cluster.into_machines()),
            &trace,
            Box::new(SparrowC::new(BaselineConfig::with_cutoff_s(cutoff))),
            seed,
        )
        .run()
    }

    #[test]
    fn completes_all_jobs() {
        let r = run(300, 100, 0.5, 1);
        assert_eq!(r.incomplete_jobs, 0);
        assert_eq!(r.counters.jobs_completed + r.counters.jobs_failed, 300);
    }

    #[test]
    fn sends_probe_ratio_probes_per_task() {
        let r = run(100, 100, 0.3, 2);
        // Tasks completed counts only non-failed jobs; every completed task
        // came from a probe and the rest were redundant.
        assert_eq!(
            r.counters.probes_sent,
            r.counters.tasks_completed + r.counters.redundant_probes
        );
        assert!(
            r.counters.redundant_probes > 0,
            "probe_ratio 2 must create redundancy"
        );
    }

    #[test]
    fn no_reordering_or_stealing() {
        let r = run(200, 80, 0.7, 3);
        assert_eq!(r.counters.srpt_reordered_tasks, 0);
        assert_eq!(r.counters.crv_reordered_tasks, 0);
        assert_eq!(r.counters.stolen_probes, 0);
        assert_eq!(r.counters.bound_placements, 0, "sparrow never early-binds");
    }

    #[test]
    fn head_of_line_blocking_hurts_short_jobs_under_load() {
        // Sparrow's known weakness: short tasks queue behind long ones.
        let r = run(600, 40, 0.9, 4);
        let p99 = r.class_response_percentile(JobClass::Short, 99.0);
        let p50 = r.class_response_percentile(JobClass::Short, 50.0);
        assert!(
            p99 > 5.0 * p50,
            "expected heavy tail from head-of-line blocking: p50={p50} p99={p99}"
        );
    }
}
