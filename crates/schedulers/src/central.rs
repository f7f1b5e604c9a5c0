//! The centralized placement path of the hybrid schedulers.
//!
//! Hawk, Eagle and Phoenix schedule **long jobs centrally**: every task is
//! early-bound to the feasible worker with the least estimated queued work,
//! skipping the partition reserved for short tasks. This module implements
//! that planner.

use phoenix_constraints::ones;
use phoenix_sim::{SimCtx, WorkerId};
use phoenix_traces::JobId;

use crate::placement::{estimated_queue_work_us, relaxation_slowdown};

/// Least-estimated-work centralized planner.
///
/// Stateless: load estimates are recomputed from the live simulation state
/// at each placement (the central scheduler of Hawk/Eagle has a global
/// view).
#[derive(Debug, Clone, Default)]
pub struct CentralPlanner {
    /// Workers with index below this bound are reserved for short tasks and
    /// never receive centrally-placed long tasks.
    pub reserved_workers: usize,
}

impl CentralPlanner {
    /// Creates a planner that skips the first `reserved_workers` workers.
    pub fn new(reserved_workers: usize) -> Self {
        CentralPlanner { reserved_workers }
    }

    /// Places every task of (long) `job` onto the least-loaded feasible
    /// workers outside the reserved partition, early-bound. Returns the
    /// worker chosen for each task (one entry per placed task), or `None`
    /// when the job is hard-unsatisfiable (the job is then failed).
    ///
    /// Placement spreads a job's tasks: each task goes to the currently
    /// least-loaded candidate, accounting for the work this very job has
    /// just queued.
    pub fn place_job(&self, ctx: &mut SimCtx<'_>, job: JobId) -> Option<Vec<WorkerId>> {
        let set = ctx.job(job).effective();
        let mut slowdown = 1.0f64;
        // Feasible workers in ascending id order, walked off the set's
        // bitset so no id list is built for the (large) long-job classes.
        let bits = ctx.feasible_bits(set);
        let mut feasible: Vec<WorkerId> = ones(bits)
            .map(WorkerId)
            .filter(|w| w.index() >= self.reserved_workers)
            .collect();
        if feasible.is_empty() {
            // Reserved partition may have swallowed every feasible worker;
            // correctness beats the partition rule.
            feasible = ones(bits).map(WorkerId).collect();
        }
        if feasible.is_empty() {
            let hard = ctx.sets().get(set).hard_only();
            let hard = ctx.intern(&hard);
            feasible = ones(ctx.feasible_bits(hard)).map(WorkerId).collect();
            if feasible.is_empty() {
                ctx.fail_job(job);
                return None;
            }
            slowdown = relaxation_slowdown(ctx.sets().get(set));
            ctx.job_mut(job).set_effective(hard);
        }

        // Under fault injection, prefer live workers when any exist; if the
        // whole feasible set is down, keep it — probes bounced off dead
        // workers re-enter placement via the retry path. (Pure filter, no
        // RNG: draw-neutral when every worker is alive.)
        if ctx.config().faults.is_active() {
            let alive: Vec<WorkerId> = feasible
                .iter()
                .copied()
                .filter(|&w| ctx.worker(w).is_alive())
                .collect();
            if !alive.is_empty() {
                feasible = alive;
            }
        }

        // Load-ordered placement with per-placement adjustment: track the
        // extra work we assign within this job so its tasks spread.
        let mut loads: Vec<(u64, WorkerId)> = feasible
            .iter()
            .map(|&w| (estimated_queue_work_us(ctx.state(), w), w))
            .collect();
        let mut placed = Vec::with_capacity(ctx.job(job).pending_tasks());
        while ctx.job(job).has_pending() {
            let duration = ctx.job_mut(job).take_task();
            let effective = ((duration as f64) * slowdown).round() as u64;
            // Least-loaded candidate.
            let (best_idx, _) = loads
                .iter()
                .enumerate()
                .min_by_key(|(_, (load, w))| (*load, w.0))
                .expect("feasible is non-empty");
            let worker = loads[best_idx].1;
            loads[best_idx].0 += effective.max(1);
            let mut probe = ctx.new_bound_probe(job, duration);
            probe.slowdown = slowdown;
            ctx.send_probe(worker, probe);
            placed.push(worker);
        }
        Some(placed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_constraints::{FeasibilityIndex, MachinePopulation, PopulationProfile};
    use phoenix_sim::{Scheduler, SimConfig, Simulation};
    use phoenix_traces::{Job, JobId, Trace};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A scheduler that places everything through the central planner.
    #[derive(Debug)]
    struct CentralOnly {
        planner: CentralPlanner,
    }

    impl Scheduler for CentralOnly {
        fn name(&self) -> &str {
            "central-only"
        }

        fn on_job_arrival(&mut self, job: JobId, ctx: &mut phoenix_sim::SimCtx<'_>) {
            self.planner.place_job(ctx, job);
        }
    }

    fn run(reserved: usize, jobs: Vec<Job>, nodes: usize) -> phoenix_sim::SimResult {
        let mut rng = StdRng::seed_from_u64(3);
        let cluster =
            MachinePopulation::generate(PopulationProfile::enterprise_like(), nodes, &mut rng);
        let trace = Trace::new("t", jobs);
        Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(cluster.into_machines()),
            &trace,
            Box::new(CentralOnly {
                planner: CentralPlanner::new(reserved),
            }),
            3,
        )
        .run()
    }

    fn job(id: u32, tasks: usize, dur: f64) -> Job {
        Job {
            id: JobId(id),
            arrival_s: 0.0,
            task_durations_s: vec![dur; tasks],
            estimated_task_duration_s: dur,
            constraints: Default::default(),
            short: false,
            user: 0,
        }
    }

    #[test]
    fn all_tasks_complete_and_are_bound() {
        let result = run(0, vec![job(0, 20, 5.0), job(1, 10, 3.0)], 10);
        assert_eq!(result.counters.jobs_completed, 2);
        assert_eq!(result.counters.bound_placements, 30);
        assert_eq!(result.counters.probes_sent, 0);
        assert_eq!(result.incomplete_jobs, 0);
    }

    #[test]
    fn load_spreading_parallelizes_one_job() {
        // 10 equal tasks on 10 free workers must finish in ~1 task time,
        // not serially.
        let result = run(0, vec![job(0, 10, 10.0)], 10);
        let makespan = result.metrics.makespan.as_secs_f64();
        assert!(
            makespan < 12.0,
            "tasks must spread across workers, makespan {makespan}"
        );
    }

    #[test]
    fn reserved_partition_is_avoided() {
        // 4 of 8 workers reserved; jobs must still complete using the rest.
        let result = run(4, vec![job(0, 8, 2.0)], 8);
        assert_eq!(result.counters.jobs_completed, 1);
        // With only 4 usable workers and 8 tasks, makespan ~2 rounds.
        assert!(result.metrics.makespan.as_secs_f64() >= 4.0);
    }
}
