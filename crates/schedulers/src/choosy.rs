//! Choosy-C: constrained max-min fair (CMMF) centralized scheduling.
//!
//! Choosy (Ghodsi et al., EuroSys'13) extends max-min fairness to jobs with
//! placement constraints: whenever capacity frees up, it is offered to the
//! *least-allocated user* among those with a pending task able to run on
//! it. The paper's Table I classifies Choosy as hierarchical/early-binding
//! with a global queue, handling single-resource (slot) fairness under hard
//! constraints — and criticizes exactly that: optimizing a fairness metric
//! rather than job response times (§VII-D).
//!
//! This implementation keeps tasks in a central queue (worker queues stay
//! empty; binding happens the moment a slot frees), tracks per-user running
//! task counts, and awards each slot CMMF-style. Soft constraints are
//! relaxed up front when a job's full set is unsatisfiable, as in the
//! other `-C` baselines.

use std::collections::HashMap;

use phoenix_sim::{Scheduler, SimCtx, WorkerId};
use phoenix_traces::JobId;

use crate::config::BaselineConfig;
use crate::placement::resolve_constraint_level;

/// The Choosy-C scheduler.
#[derive(Debug, Clone, Default)]
pub struct ChoosyC {
    config: BaselineConfig,
    /// Jobs with unlaunched tasks, in arrival order.
    pending: Vec<JobId>,
    /// Running-task count per user (the allocation CMMF equalizes).
    allocation: HashMap<u32, u64>,
    /// Cumulative tasks served per user — the tie-breaker that keeps
    /// max-min meaningful at single-slot granularity (two users with zero
    /// *running* tasks are separated by who has been served more).
    served: HashMap<u32, u64>,
    /// Per-job slowdown from up-front soft relaxation.
    slowdown: HashMap<JobId, f64>,
    /// Placements sent but not yet arrived at their worker (network
    /// delay): those workers must not be offered further tasks.
    in_flight: HashMap<u32, u32>,
}

impl ChoosyC {
    /// Creates Choosy-C with the given shared configuration.
    pub fn new(config: BaselineConfig) -> Self {
        ChoosyC {
            config,
            ..Self::default()
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BaselineConfig {
        &self.config
    }

    /// Places one task of `job` on `worker` as a bound probe.
    fn place_one(&mut self, job: JobId, worker: WorkerId, ctx: &mut SimCtx<'_>) {
        let duration = ctx.job_mut(job).take_task();
        let user = ctx.job(job).user;
        *self.allocation.entry(user).or_insert(0) += 1;
        *self.served.entry(user).or_insert(0) += 1;
        *self.in_flight.entry(worker.0).or_insert(0) += 1;
        let mut probe = ctx.new_bound_probe(job, duration);
        probe.slowdown = *self.slowdown.get(&job).unwrap_or(&1.0);
        ctx.send_probe(worker, probe);
    }

    /// Whether `worker` can accept a new assignment right now.
    fn worker_available(&self, worker: WorkerId, ctx: &SimCtx<'_>) -> bool {
        ctx.worker(worker).has_free_slot()
            && ctx.worker(worker).queue_len() == 0
            && *self.in_flight.get(&worker.0).unwrap_or(&0) == 0
    }

    /// Among pending jobs feasible on `worker`, the one whose user has the
    /// smallest allocation (FIFO within a user).
    fn poorest_feasible_job(&mut self, worker: WorkerId, ctx: &SimCtx<'_>) -> Option<JobId> {
        self.pending.retain(|&j| ctx.job(j).has_pending());
        let mut best: Option<(u64, u64, usize, JobId)> = None;
        for (order, &job) in self.pending.iter().enumerate() {
            if !ctx.is_feasible(worker, ctx.job(job).effective()) {
                continue;
            }
            let user = ctx.job(job).user;
            let alloc = *self.allocation.get(&user).unwrap_or(&0);
            let served = *self.served.get(&user).unwrap_or(&0);
            match best {
                Some((a, s, o, _)) if (a, s, o) <= (alloc, served, order) => {}
                _ => best = Some((alloc, served, order, job)),
            }
        }
        best.map(|(_, _, _, job)| job)
    }

    /// Greedy fill at arrival: offer every idle feasible worker one task,
    /// poorest user first.
    fn fill_idle_workers(&mut self, ctx: &mut SimCtx<'_>) {
        loop {
            // Find an idle worker that can serve some pending job.
            let mut placed = false;
            let idle: Vec<WorkerId> = (0..ctx.num_workers() as u32)
                .map(WorkerId)
                .filter(|&w| self.worker_available(w, ctx))
                .collect();
            for worker in idle {
                if let Some(job) = self.poorest_feasible_job(worker, ctx) {
                    self.place_one(job, worker, ctx);
                    placed = true;
                }
            }
            if !placed {
                return;
            }
        }
    }
}

impl Scheduler for ChoosyC {
    fn name(&self) -> &str {
        "choosy-c"
    }

    fn on_probe_enqueued(&mut self, worker: WorkerId, _ctx: &mut SimCtx<'_>) {
        if let Some(n) = self.in_flight.get_mut(&worker.0) {
            *n = n.saturating_sub(1);
        }
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        // Resolve the constraint level once (up-front soft relaxation).
        let Some((_, slowdown)) = resolve_constraint_level(ctx, job) else {
            return;
        };
        self.slowdown.insert(job, slowdown);
        self.pending.push(job);
        self.fill_idle_workers(ctx);
    }

    fn on_task_finish(
        &mut self,
        worker: WorkerId,
        job: JobId,
        _duration_us: u64,
        ctx: &mut SimCtx<'_>,
    ) {
        let user = ctx.job(job).user;
        if let Some(a) = self.allocation.get_mut(&user) {
            *a = a.saturating_sub(1);
        }
        if ctx.job(job).is_complete() {
            self.slowdown.remove(&job);
        }
        // The freed slot goes to the poorest user able to use it.
        if self.worker_available(worker, ctx) {
            if let Some(next) = self.poorest_feasible_job(worker, ctx) {
                self.place_one(next, worker, ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_constraints::{
        AttributeVector, ConstraintSet, FeasibilityIndex, MachinePopulation,
    };
    use phoenix_sim::{SimConfig, SimResult, Simulation};
    use phoenix_traces::{Job, Trace, TraceGenerator, TraceProfile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(jobs: usize, nodes: usize, util: f64, seed: u64) -> SimResult {
        let profile = TraceProfile::yahoo();
        let cutoff = profile.short_cutoff_s();
        let mut rng = StdRng::seed_from_u64(seed);
        let cluster = MachinePopulation::generate(profile.population.clone(), nodes, &mut rng);
        let trace = TraceGenerator::new(profile, seed).generate(jobs, nodes, util);
        Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(cluster.into_machines()),
            &trace,
            Box::new(ChoosyC::new(BaselineConfig::with_cutoff_s(cutoff))),
            seed,
        )
        .run()
    }

    #[test]
    fn completes_all_jobs_with_central_binding() {
        let r = run(400, 100, 0.6, 1);
        assert_eq!(r.incomplete_jobs, 0);
        assert_eq!(r.counters.probes_sent, 0, "choosy never probes");
        assert_eq!(r.counters.bound_placements, r.counters.tasks_completed);
    }

    #[test]
    fn slots_go_to_the_poorest_user() {
        // Two users: user 0 floods the cluster first; user 1 submits one
        // job while user 0 still has plenty queued. CMMF must serve user
        // 1's task at the very next free slot rather than draining user 0.
        let mk = |id: u32, arrival: f64, tasks: usize, user: u32| Job {
            id: phoenix_traces::JobId(id),
            arrival_s: arrival,
            task_durations_s: vec![10.0; tasks],
            estimated_task_duration_s: 10.0,
            constraints: ConstraintSet::unconstrained(),
            short: true,
            user,
        };
        // 1 worker; user 0 submits 10 tasks at t=0, user 1 one task at t=1.
        let trace = Trace::new("t", vec![mk(0, 0.0, 10, 0), mk(1, 1.0, 1, 1)]);
        let result = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(vec![AttributeVector::default()]),
            &trace,
            Box::new(ChoosyC::new(BaselineConfig::default())),
            1,
        )
        .run();
        assert_eq!(result.incomplete_jobs, 0);
        // User 1's single-task job runs right after the first task of user
        // 0 finishes: response ≈ 10 (head task) − 1 (arrival) + 10 ≈ 19 s,
        // not after user 0's whole backlog (≈ 100 s).
        let user1 = result
            .job_outcomes
            .iter()
            .find(|o| o.user == 1)
            .expect("present");
        let resp = user1.response_s.expect("completed");
        assert!(
            (15.0..25.0).contains(&resp),
            "CMMF must prioritize the poorer user: response {resp}"
        );
    }

    #[test]
    fn constrained_jobs_wait_for_their_machines() {
        let r = run(600, 80, 0.9, 3);
        assert_eq!(r.incomplete_jobs, 0);
        // Central queue: worker queues never grow.
        assert_eq!(r.counters.srpt_reordered_tasks, 0);
    }
}
