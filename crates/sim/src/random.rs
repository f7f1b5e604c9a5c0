//! A minimal constraint-respecting random scheduler.
//!
//! Serves two purposes: a sanity baseline ("what if probes land on uniform
//! random feasible workers with FIFO queues?") and the engine's own test
//! fixture. Real baselines (Sparrow-C, Hawk-C, Eagle-C, Yaq-d) live in
//! `phoenix-schedulers`.

use phoenix_traces::JobId;

use crate::context::SimCtx;
use crate::scheduler::Scheduler;

/// Random feasible placement with FIFO worker queues and late binding.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    probe_ratio: u32,
}

impl RandomScheduler {
    /// Creates a random scheduler sending `probe_ratio` probes per task.
    ///
    /// # Panics
    ///
    /// Panics if `probe_ratio` is zero.
    pub fn new(probe_ratio: u32) -> Self {
        assert!(probe_ratio > 0, "probe ratio must be at least 1");
        RandomScheduler { probe_ratio }
    }
}

impl Scheduler for RandomScheduler {
    fn name(&self) -> &str {
        "random"
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        let (set, tasks) = { (ctx.effective(job), ctx.job(job).num_tasks()) };
        let want = tasks * self.probe_ratio as usize;
        // Uniform feasible targets; when no worker satisfies the full set,
        // its hard subset becomes the job's effective set.
        let mut targets = ctx.sample_feasible_workers(set, want);
        if targets.is_empty() {
            let hard = ctx.sets().get(set).hard_only();
            let hard = ctx.intern(&hard);
            targets = ctx.sample_feasible_workers(hard, want);
            if targets.is_empty() {
                ctx.fail_job(job);
                return;
            }
            ctx.set_effective(job, hard);
        }
        for i in 0..want {
            let worker = targets[i % targets.len()];
            let probe = ctx.new_probe(job);
            ctx.send_probe(worker, probe);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Simulation;
    use crate::metrics::SimResult;
    use phoenix_constraints::{FeasibilityIndex, MachinePopulation};
    use phoenix_metrics::JobClass;
    use phoenix_traces::{TraceGenerator, TraceProfile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_small(jobs: usize, nodes: usize, util: f64, seed: u64) -> SimResult {
        let profile = TraceProfile::yahoo();
        let mut rng = StdRng::seed_from_u64(seed);
        let cluster = MachinePopulation::generate(profile.population.clone(), nodes, &mut rng);
        let trace = TraceGenerator::new(profile, seed).generate(jobs, nodes, util);
        Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(cluster.into_machines()),
            &trace,
            Box::new(RandomScheduler::new(2)),
            seed,
        )
        .run()
    }

    #[test]
    fn all_jobs_complete() {
        let result = run_small(200, 80, 0.5, 3);
        assert_eq!(result.incomplete_jobs, 0);
        assert_eq!(
            result.counters.jobs_completed + result.counters.jobs_failed,
            200
        );
        assert!(result.counters.tasks_completed > 0);
    }

    #[test]
    fn conservation_probes_accounted() {
        let result = run_small(150, 60, 0.6, 5);
        let c = result.counters;
        // Every speculative probe either launched a task or was redundant;
        // every bound placement launched a task.
        // Failed jobs (hard-unsatisfiable on a tiny cluster) send no probes
        // at all, so the equation holds regardless of failures.
        assert_eq!(
            c.probes_sent + c.bound_placements,
            c.tasks_completed + c.redundant_probes,
        );
    }

    #[test]
    fn determinism_across_runs() {
        let a = run_small(100, 50, 0.5, 11);
        let b = run_small(100, 50, 0.5, 11);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.metrics.makespan, b.metrics.makespan);
        assert_eq!(
            a.class_response_percentile(JobClass::Short, 99.0),
            b.class_response_percentile(JobClass::Short, 99.0)
        );
    }

    #[test]
    fn utilization_is_reasonable() {
        let result = run_small(400, 60, 0.6, 13);
        let u = result.utilization();
        assert!(u > 0.1 && u <= 1.0, "utilization {u}");
    }

    #[test]
    #[should_panic(expected = "probe ratio")]
    fn zero_probe_ratio_rejected() {
        let _ = RandomScheduler::new(0);
    }
}
