//! Hawk's constraint-aware random work stealing.
//!
//! When a Hawk worker goes idle with an empty queue, it contacts randomly
//! chosen workers; if a victim is executing a *long* task with *short*
//! (speculative) probes stuck behind it, the thief steals the probes it can
//! itself satisfy (the "-C" constraint extension) and requeues them locally
//! after a network delay.

use phoenix_sim::{Probe, ProfileScope, SimCtx, TraceRecord, WorkerId};
use rand::Rng;

/// Random victims an idle worker contacts per steal (Hawk, ATC'15).
const STEAL_ATTEMPTS: u32 = 10;

/// Hawk's stealing trigger: when `worker` has just finished a task and its
/// queue is empty, it steals from behind tasks of at least `long_task_us`
/// (visiting up to [`STEAL_ATTEMPTS`] victims) and is touched for dispatch
/// if it got anything.
pub fn steal_if_idle(ctx: &mut SimCtx<'_>, worker: WorkerId, long_task_us: u64) {
    if ctx.worker(worker).queue_len() == 0
        && try_steal(ctx, worker, STEAL_ATTEMPTS, long_task_us) > 0
    {
        ctx.touch(worker);
    }
}

/// Attempts one steal for idle `thief`. Visits up to `attempts` random
/// victims; steals from the first victim that is running a long-estimate
/// task and has speculative probes the thief satisfies. Returns the number
/// of probes stolen.
///
/// `is_long_task` decides whether a victim's running task counts as long
/// (Hawk steals only from behind long tasks).
pub fn try_steal(
    ctx: &mut SimCtx<'_>,
    thief: WorkerId,
    attempts: u32,
    is_long_task_us: u64,
) -> usize {
    let n = ctx.num_workers();
    if n <= 1 {
        return 0;
    }
    let started = ctx.state().profiler().begin();
    for _ in 0..attempts {
        let victim = WorkerId(ctx.rng().random_range(0..n) as u32);
        if victim == thief {
            continue;
        }
        // Victim must have queued probes and be executing a long task
        // (head-of-line blocking is what stealing exists to fix). The
        // queue length is checked first: it is stored inline, while the
        // running tasks sit in a separate heap buffer.
        let w = ctx.worker(victim);
        if w.queue_len() == 0
            || !w
                .running_tasks()
                .iter()
                .any(|task| task.duration_us >= is_long_task_us)
        {
            continue;
        }
        let stolen = steal_feasible_probes(ctx, victim, thief);
        if !stolen.is_empty() {
            let count = stolen.len();
            ctx.counters_mut().stolen_probes += count as u64;
            let at_us = ctx.now().as_micros();
            ctx.state_mut().tracer_mut().emit(|| TraceRecord::Steal {
                at_us,
                victim: victim.0,
                thief: thief.0,
                probes: count as u32,
            });
            for probe in stolen {
                ctx.transfer_probe(thief, probe);
            }
            ctx.state_mut()
                .profiler_mut()
                .end(ProfileScope::Steal, started);
            return count;
        }
    }
    ctx.state_mut()
        .profiler_mut()
        .end(ProfileScope::Steal, started);
    0
}

/// Removes from `victim`'s queue every *speculative* probe whose job's
/// effective constraints `thief` satisfies, returning them.
fn steal_feasible_probes(ctx: &mut SimCtx<'_>, victim: WorkerId, thief: WorkerId) -> Vec<Probe> {
    // Collect feasibility decisions first (immutable pass), then remove.
    let steal_ids: Vec<_> = ctx
        .worker(victim)
        .queue()
        .iter()
        .filter(|p| !p.is_bound())
        .filter(|p| ctx.is_feasible(thief, ctx.effective(p.job)))
        .map(|p| p.id)
        .collect();
    steal_ids
        .into_iter()
        .filter_map(|id| ctx.remove_probe_by_id(victim, id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_constraints::{FeasibilityIndex, MachinePopulation, PopulationProfile};
    use phoenix_sim::{Scheduler, SimConfig, SimTime, Simulation};
    use phoenix_traces::{Job, JobId, Trace};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Places the long job's task on worker 0 (bound) and piles every short
    /// probe behind it, then steals from an idle worker on wakeup.
    #[derive(Debug, Default)]
    struct StealFixture {
        stole: usize,
    }

    impl Scheduler for StealFixture {
        fn name(&self) -> &str {
            "steal-fixture"
        }

        fn on_job_arrival(&mut self, job: JobId, ctx: &mut phoenix_sim::SimCtx<'_>) {
            let is_long = ctx.estimated_task_us(job) > 1_000_000;
            if is_long {
                let d = ctx.take_task(job);
                let probe = ctx.new_bound_probe(job, d);
                ctx.send_probe(WorkerId(0), probe);
            } else {
                // All short probes pile onto worker 0 behind the long task.
                let probe = ctx.new_probe(job);
                ctx.send_probe(WorkerId(0), probe);
                // An idle worker tries to steal shortly after.
                ctx.schedule_wakeup(phoenix_sim::SimDuration::from_millis(10), 1);
            }
        }

        fn on_wakeup(&mut self, _token: u64, ctx: &mut phoenix_sim::SimCtx<'_>) {
            self.stole += try_steal(ctx, WorkerId(1), 16, 1_000_000);
            ctx.touch(WorkerId(1));
        }
    }

    #[test]
    fn idle_worker_steals_short_probes_behind_long_task() {
        let mut rng = StdRng::seed_from_u64(5);
        let cluster =
            MachinePopulation::generate(PopulationProfile::enterprise_like(), 4, &mut rng);
        let mut jobs = vec![Job {
            id: JobId(0),
            arrival_s: 0.0,
            task_durations_s: vec![100.0],
            estimated_task_duration_s: 100.0,
            constraints: Default::default(),
            short: false,
            user: 0,
        }];
        for i in 1..4u32 {
            jobs.push(Job {
                id: JobId(i),
                arrival_s: 0.1,
                task_durations_s: vec![1.0],
                estimated_task_duration_s: 1.0,
                constraints: Default::default(),
                short: true,
                user: 0,
            });
        }
        let trace = Trace::new("t", jobs);
        let result = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(cluster.into_machines()),
            &trace,
            Box::new(StealFixture::default()),
            5,
        )
        .run();
        assert!(result.counters.stolen_probes > 0, "steal must trigger");
        assert_eq!(result.incomplete_jobs, 0);
        // Short jobs finish long before the 100 s long task would free
        // worker 0 — i.e. they ran on the thief.
        let makespan = result.metrics.makespan;
        assert!(makespan >= SimTime::from_secs_f64(100.0));
        let mut short_resp = result
            .metrics
            .job_response
            .by_class(phoenix_metrics::JobClass::Short);
        assert!(
            short_resp.max() < 50.0,
            "stolen short jobs must not wait for the long task: {}",
            short_resp.max()
        );
    }
}
