//! Hawk-C: hybrid scheduling with a short-task partition and work stealing.
//!
//! Hawk (Delgado et al., ATC'15):
//!
//! * **Long jobs** (estimated task duration above the cutoff) are placed by
//!   a centralized scheduler on the least-loaded feasible workers, never
//!   inside the partition reserved for short tasks.
//! * **Short jobs** are scheduled in a distributed fashion: `probe_ratio`
//!   probes per task on random feasible workers (anywhere in the cluster).
//! * **Work stealing**: a worker that goes idle with an empty queue contacts
//!   random victims and steals the short probes stuck behind a long task.
//!
//! Queues are FIFO (Table I: Hawk has no queue reordering). The `-C`
//! extension restricts sampling and stealing to constraint-feasible workers.

use phoenix_sim::{Scheduler, SimCtx, WorkerId};
use phoenix_traces::JobId;

use crate::central::place_long_job;
use crate::config::BaselineConfig;
use crate::placement::{choose_targets, send_speculative_probes};
use crate::stealing::steal_if_idle;

/// The Hawk-C scheduler.
#[derive(Debug, Clone)]
pub struct HawkC {
    config: BaselineConfig,
}

impl HawkC {
    /// Creates Hawk-C with the given shared configuration.
    pub fn new(config: BaselineConfig) -> Self {
        HawkC { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BaselineConfig {
        &self.config
    }
}

impl Scheduler for HawkC {
    fn name(&self) -> &str {
        "hawk-c"
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        let (set, tasks, est) = (
            ctx.effective(job),
            ctx.job(job).num_tasks(),
            ctx.estimated_task_us(job),
        );
        if !self.config.is_short(est) {
            let reserved = self.config.reserved_workers(ctx.num_workers());
            place_long_job(ctx, job, reserved);
            return;
        }
        let want = tasks * self.config.probe_ratio as usize;
        match choose_targets(ctx, set, want, |_| false) {
            Some(placement) => send_speculative_probes(ctx, job, &placement, want),
            None => ctx.fail_job(job),
        }
    }

    fn on_task_finish(
        &mut self,
        worker: WorkerId,
        _job: JobId,
        _duration_us: u64,
        ctx: &mut SimCtx<'_>,
    ) {
        // Idle with an empty queue: go steal.
        steal_if_idle(ctx, worker, self.config.short_cutoff.as_micros());
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
            Box::new(HawkC::new(BaselineConfig::with_cutoff_s(cutoff))),
            seed,
        )
        .run()
    }

    #[test]
    fn completes_all_jobs() {
        let r = run(400, 100, 0.6, 1);
        assert_eq!(r.incomplete_jobs, 0);
        assert_eq!(r.counters.jobs_completed + r.counters.jobs_failed, 400);
    }

    #[test]
    fn long_jobs_are_centrally_bound_short_jobs_probed() {
        let r = run(500, 100, 0.5, 2);
        assert!(r.counters.bound_placements > 0, "long jobs early-bind");
        assert!(r.counters.probes_sent > 0, "short jobs probe");
    }

    #[test]
    fn stealing_happens_under_load() {
        let r = run(800, 60, 0.9, 3);
        assert!(
            r.counters.stolen_probes > 0,
            "idle workers must steal under load"
        );
    }

    #[test]
    fn beats_sparrow_for_short_jobs_under_load() {
        let profile = TraceProfile::yahoo();
        let cutoff = profile.short_cutoff_s();
        let mut rng = StdRng::seed_from_u64(7);
        let cluster = MachinePopulation::generate(profile.population.clone(), 60, &mut rng);
        let machines = cluster.into_machines();
        let trace = TraceGenerator::new(profile, 7).generate(900, 60, 0.85);
        let hawk = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(machines.clone()),
            &trace,
            Box::new(HawkC::new(BaselineConfig::with_cutoff_s(cutoff))),
            7,
        )
        .run();
        let sparrow = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(machines),
            &trace,
            Box::new(crate::sparrow::SparrowC::new(
                BaselineConfig::with_cutoff_s(cutoff),
            )),
            7,
        )
        .run();
        let hawk_p90 = hawk.class_response_percentile(JobClass::Short, 90.0);
        let sparrow_p90 = sparrow.class_response_percentile(JobClass::Short, 90.0);
        assert!(
            hawk_p90 < sparrow_p90 * 1.1,
            "hawk p90 {hawk_p90} should not lose clearly to sparrow {sparrow_p90}"
        );
    }
}

#[cfg(test)]
mod partition_tests {
    use super::*;
    use phoenix_constraints::{AttributeVector, ConstraintSet, FeasibilityIndex};
    use phoenix_sim::{SimConfig, Simulation};
    use phoenix_traces::{Job, JobId, Trace};

    /// Long tasks never land in the reserved short partition (first 10 %
    /// of worker ids).
    #[test]
    fn long_jobs_avoid_the_reserved_partition() {
        let machines = vec![AttributeVector::default(); 20]; // 2 reserved
        let jobs = vec![Job {
            id: JobId(0),
            arrival_s: 0.0,
            task_durations_s: vec![1_500.0; 18],
            estimated_task_duration_s: 1_500.0,
            constraints: ConstraintSet::unconstrained(),
            short: false,
            user: 0,
        }];
        let trace = Trace::new("t", jobs);
        // Drive the sim manually so we can inspect which workers got busy.
        let sim = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(machines),
            &trace,
            Box::new(HawkC::new(BaselineConfig::with_cutoff_s(950.0))),
            1,
        );
        let result = sim.run();
        assert_eq!(result.incomplete_jobs, 0);
        // 18 long tasks across 18 usable workers: exactly one wave, so the
        // makespan equals one task duration. Had any task been queued onto
        // the 18 usable workers twice (because the partition was violated
        // into by fewer available machines... ) the makespan would double.
        assert!(
            (result.metrics.makespan.as_secs_f64() - 1_500.0).abs() < 5.0,
            "18 tasks on 18 non-reserved workers must run in one wave: {}",
            result.metrics.makespan.as_secs_f64()
        );
    }
}
