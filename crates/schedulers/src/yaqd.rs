//! Yaq-d: distributed early binding into bounded queues with SRPT.
//!
//! Yaq-d (Rasley et al., EuroSys'16 — "Efficient queue management for
//! cluster scheduling") binds every task *early* to a specific worker
//! queue: for each task the scheduler samples a handful of candidate
//! workers, prefers those whose queue is under a length bound, and picks
//! the one with the least estimated queued work. Queues are reordered with
//! SRPT (bounded by the starvation slack). There is no late binding, no
//! stealing and no short/long split — which is why constrained bursts hurt
//! it (Fig. 2 of the Phoenix paper).

use phoenix_sim::{Scheduler, SimCtx, SimState, WorkerId};
use phoenix_traces::JobId;

use crate::config::BaselineConfig;
use crate::placement::{estimated_queue_work_us, resolve_constraint_level};
use crate::srpt::srpt_insert_tail;

/// Bound on queued tasks per worker (Yaq-d, EuroSys'16): a queue at or
/// over it is chosen only when every candidate's is.
const QUEUE_BOUND: usize = 10;

/// Yaq-d's early-binding pick, shared with Mercury-C: among `candidates`,
/// prefer queues under [`QUEUE_BOUND`], then the least estimated queued
/// work, then the lowest id. `None` only when `candidates` is empty.
pub(crate) fn least_loaded_under_bound(
    state: &SimState,
    candidates: &[WorkerId],
) -> Option<WorkerId> {
    candidates.iter().copied().min_by_key(|&w| {
        let over = usize::from(state.workers[w.index()].queue_len() >= QUEUE_BOUND);
        (over, estimated_queue_work_us(state, w), w.0)
    })
}

/// The Yaq-d scheduler.
#[derive(Debug, Clone)]
pub struct YaqD {
    config: BaselineConfig,
}

impl YaqD {
    /// Creates Yaq-d with the given shared configuration.
    pub fn new(config: BaselineConfig) -> Self {
        YaqD { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BaselineConfig {
        &self.config
    }

    /// Candidate workers sampled per task.
    fn candidates_per_task(&self) -> usize {
        (self.config.probe_ratio as usize * 2).max(2)
    }
}

impl Scheduler for YaqD {
    fn name(&self) -> &str {
        "yaq-d"
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        // Resolve the constraint level once per job.
        let Some((set, slowdown)) = resolve_constraint_level(ctx, job) else {
            return;
        };

        let d = self.candidates_per_task();
        while ctx.job(job).has_pending() {
            let duration = ctx.take_task(job);
            let mut candidates = ctx.sample_feasible_workers(set, d);
            if candidates.is_empty() {
                // Only reachable under fault injection: every feasible
                // worker is down right now. Bind to a dead worker anyway —
                // the engine bounces the probe into the retry path.
                debug_assert!(ctx.config().faults.is_active(), "feasibility checked above");
                candidates = ctx.sample_feasible_workers_any(set, d);
            }
            let best =
                least_loaded_under_bound(ctx.state(), &candidates).expect("candidates non-empty");
            let mut probe = ctx.new_bound_probe(job, duration);
            probe.slowdown = slowdown;
            ctx.send_probe(best, probe);
        }
    }

    fn on_probe_enqueued(&mut self, worker: WorkerId, ctx: &mut SimCtx<'_>) {
        srpt_insert_tail(ctx.state_mut(), worker, self.config.slack_threshold);
    }

    fn on_probe_retry(&mut self, probe: phoenix_sim::Probe, ctx: &mut SimCtx<'_>) {
        // Re-place with Yaq-d's own policy: least estimated work among
        // under-bound live candidates.
        let Some(set) = ctx.retry_set(&probe) else {
            return;
        };
        let candidates = ctx.sample_feasible_workers(set, self.candidates_per_task());
        match least_loaded_under_bound(ctx.state(), &candidates) {
            Some(w) => ctx.resend_probe(w, probe),
            None => ctx.retry_probe_later(probe),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_constraints::{FeasibilityIndex, MachinePopulation};
    use phoenix_sim::{SimConfig, Simulation};
    use phoenix_traces::{TraceGenerator, TraceProfile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(jobs: usize, nodes: usize, util: f64, seed: u64) -> phoenix_sim::SimResult {
        let profile = TraceProfile::cloudera();
        let cutoff = profile.short_cutoff_s();
        let mut rng = StdRng::seed_from_u64(seed);
        let cluster = MachinePopulation::generate(profile.population.clone(), nodes, &mut rng);
        let trace = TraceGenerator::new(profile, seed).generate(jobs, nodes, util);
        Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(cluster.into_machines()),
            &trace,
            Box::new(YaqD::new(BaselineConfig::with_cutoff_s(cutoff))),
            seed,
        )
        .run()
    }

    #[test]
    fn completes_all_jobs_with_early_binding_only() {
        let r = run(400, 100, 0.6, 1);
        assert_eq!(r.incomplete_jobs, 0);
        assert_eq!(
            r.counters.probes_sent, 0,
            "yaq-d never sends speculative probes"
        );
        assert_eq!(r.counters.redundant_probes, 0);
        assert!(r.counters.bound_placements > 0);
        assert_eq!(
            r.counters.bound_placements, r.counters.tasks_completed,
            "every bound placement runs exactly once"
        );
    }

    #[test]
    fn srpt_reordering_is_active_under_load() {
        let r = run(900, 60, 0.9, 2);
        assert!(r.counters.srpt_reordered_tasks > 0);
    }

    #[test]
    fn deterministic() {
        let a = run(200, 80, 0.7, 9);
        let b = run(200, 80, 0.7, 9);
        assert_eq!(a.counters, b.counters);
    }
}
