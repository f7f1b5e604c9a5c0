//! Eagle-C: Hawk plus SSS, SBP and SRPT reordering.
//!
//! Eagle (Delgado et al., SoCC'16) extends Hawk's hybrid design with three
//! mechanisms — all reproduced here, all constraint-aware:
//!
//! * **Succinct State Sharing / divide**: the central scheduler shares a bit
//!   vector of workers occupied by long work; short-job probes avoid those
//!   workers, eliminating most head-of-line blocking.
//! * **Sticky Batch Probing (SBP)**: a worker that finishes a short task of
//!   a job with unlaunched tasks immediately serves the same job again,
//!   amortizing one probe over several tasks.
//! * **SRPT queue reordering** with a starvation bound: shorter estimated
//!   tasks are served first, but a probe bypassed `slack_threshold` times
//!   becomes un-bypassable.
//!
//! This is the paper's primary baseline. Phoenix is built on top of it
//! literally: `phoenix_core::Phoenix` holds an `EagleC` and delegates SSS
//! set-up, long-job placement, the task-finish path (SBP, then stealing)
//! and the crash hook to it, replacing only short-job placement and queue
//! ordering (CRV-based reordering under contention).

use phoenix_sim::{Scheduler, SimCtx, WorkerId};
use phoenix_traces::JobId;

use crate::central::place_long_job;
use crate::config::BaselineConfig;
use crate::placement::{choose_targets, send_speculative_probes};
use crate::srpt::srpt_insert_tail;
use crate::sss::LongBusyMap;
use crate::stealing::steal_if_idle;

/// The Eagle-C scheduler.
#[derive(Debug)]
pub struct EagleC {
    config: BaselineConfig,
    long_busy: LongBusyMap,
    /// Disables SBP (for ablations).
    pub sticky_batch_probing: bool,
}

impl EagleC {
    /// Creates Eagle-C with the given shared configuration.
    pub fn new(config: BaselineConfig) -> Self {
        EagleC {
            config,
            long_busy: LongBusyMap::default(),
            sticky_batch_probing: true,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BaselineConfig {
        &self.config
    }

    /// The current long-busy map (SSS state).
    pub fn long_busy(&self) -> &LongBusyMap {
        &self.long_busy
    }

    /// Sizes the SSS map to the cluster; a no-op after the first call.
    /// Called on every job arrival, before placement.
    pub fn ensure_initialized(&mut self, ctx: &SimCtx<'_>) {
        if self.long_busy.is_empty() && ctx.num_workers() > 0 {
            self.long_busy = LongBusyMap::new(ctx.num_workers());
        }
    }

    fn is_short_job(&self, state_est_us: u64) -> bool {
        self.config.is_short(state_est_us)
    }

    /// Places a short job's probes, avoiding long-busy workers (divide).
    fn place_short(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        let (set, tasks) = (ctx.effective(job), ctx.job(job).num_tasks());
        let want = tasks * self.config.probe_ratio as usize;
        let long_busy = &self.long_busy;
        match choose_targets(ctx, set, want, |w| long_busy.is_long_busy(WorkerId(w))) {
            Some(placement) => send_speculative_probes(ctx, job, &placement, want),
            None => ctx.fail_job(job),
        }
    }

    /// Places a long job centrally outside the short partition and marks
    /// every chosen worker long-busy (SSS).
    pub fn place_long(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        let reserved = self.config.reserved_workers(ctx.num_workers());
        if let Some(placements) = place_long_job(ctx, job, reserved) {
            for worker in placements {
                self.long_busy.add(worker);
            }
        }
    }
}

impl Scheduler for EagleC {
    fn name(&self) -> &str {
        "eagle-c"
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        self.ensure_initialized(ctx);
        let est = ctx.estimated_task_us(job);
        if self.is_short_job(est) {
            self.place_short(job, ctx);
        } else {
            self.place_long(job, ctx);
        }
    }

    fn on_probe_enqueued(&mut self, worker: WorkerId, ctx: &mut SimCtx<'_>) {
        srpt_insert_tail(ctx.state_mut(), worker, self.config.slack_threshold);
    }

    fn on_task_finish(
        &mut self,
        worker: WorkerId,
        job: JobId,
        _duration_us: u64,
        ctx: &mut SimCtx<'_>,
    ) {
        // SSS bookkeeping: a finished long task frees its long-busy mark.
        let est = ctx.estimated_task_us(job);
        let job_is_short = self.is_short_job(est);
        if !job_is_short {
            self.long_busy.release(worker);
        }
        // Sticky batch probing: keep serving the same short job.
        if self.sticky_batch_probing && job_is_short && ctx.has_pending(job) {
            let probe = ctx.new_probe(job);
            ctx.counters_mut().sbp_continuations += 1;
            ctx.state_mut().enqueue_probe_front(worker, probe);
            ctx.touch(worker);
            return;
        }
        // Otherwise behave like Hawk: idle and empty → steal.
        steal_if_idle(ctx, worker, self.config.short_cutoff.as_micros());
    }

    fn on_worker_crash(&mut self, worker: WorkerId, _ctx: &mut SimCtx<'_>) {
        // Every centrally-placed long task there died with the worker (and
        // its queued long probes were dropped): clear the whole SSS mark.
        // The map is sized lazily on first arrival; a crash may beat it.
        if !self.long_busy.is_empty() {
            self.long_busy.clear(worker);
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

    fn build(
        jobs: usize,
        nodes: usize,
        util: f64,
        seed: u64,
    ) -> (
        Vec<phoenix_constraints::AttributeVector>,
        phoenix_traces::Trace,
        f64,
    ) {
        let profile = TraceProfile::yahoo();
        let cutoff = profile.short_cutoff_s();
        let mut rng = StdRng::seed_from_u64(seed);
        let cluster = MachinePopulation::generate(profile.population.clone(), nodes, &mut rng);
        let trace = TraceGenerator::new(profile, seed).generate(jobs, nodes, util);
        (cluster.into_machines(), trace, cutoff)
    }

    fn run_eagle(jobs: usize, nodes: usize, util: f64, seed: u64) -> phoenix_sim::SimResult {
        let (machines, trace, cutoff) = build(jobs, nodes, util, seed);
        Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(machines),
            &trace,
            Box::new(EagleC::new(BaselineConfig::with_cutoff_s(cutoff))),
            seed,
        )
        .run()
    }

    #[test]
    fn completes_all_jobs() {
        let r = run_eagle(400, 100, 0.6, 1);
        assert_eq!(r.incomplete_jobs, 0);
        assert_eq!(r.counters.jobs_completed + r.counters.jobs_failed, 400);
    }

    #[test]
    fn srpt_reordering_is_active() {
        let r = run_eagle(800, 60, 0.9, 2);
        assert!(
            r.counters.srpt_reordered_tasks > 0,
            "SRPT must reorder under load"
        );
    }

    #[test]
    fn sbp_reduces_probe_volume() {
        let (machines, trace, cutoff) = build(500, 80, 0.7, 3);
        let with_sbp = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(machines.clone()),
            &trace,
            Box::new(EagleC::new(BaselineConfig::with_cutoff_s(cutoff))),
            3,
        )
        .run();
        let mut eagle_no_sbp = EagleC::new(BaselineConfig::with_cutoff_s(cutoff));
        eagle_no_sbp.sticky_batch_probing = false;
        let without_sbp = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(machines),
            &trace,
            Box::new(eagle_no_sbp),
            3,
        )
        .run();
        // SBP serves extra tasks from existing probes; the network probe
        // count per launched task must not increase.
        assert!(
            with_sbp.counters.probes_sent <= without_sbp.counters.probes_sent,
            "SBP should not send more network probes"
        );
    }

    #[test]
    fn beats_hawk_for_short_job_tail_under_load() {
        let (machines, trace, cutoff) = build(1200, 60, 0.9, 5);
        let eagle = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(machines.clone()),
            &trace,
            Box::new(EagleC::new(BaselineConfig::with_cutoff_s(cutoff))),
            5,
        )
        .run();
        let hawk = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(machines),
            &trace,
            Box::new(crate::hawk::HawkC::new(BaselineConfig::with_cutoff_s(
                cutoff,
            ))),
            5,
        )
        .run();
        let ep99 = eagle.class_response_percentile(JobClass::Short, 99.0);
        let hp99 = hawk.class_response_percentile(JobClass::Short, 99.0);
        assert!(
            ep99 <= hp99,
            "eagle short p99 {ep99} must beat hawk {hp99} (paper's premise)"
        );
    }
}

#[cfg(test)]
mod sss_behavior_tests {
    use super::*;
    use phoenix_constraints::{AttributeVector, ConstraintSet, FeasibilityIndex};
    use phoenix_sim::{SimConfig, Simulation};
    use phoenix_traces::{Job, JobId, Trace};

    /// One long job fills workers; subsequent short probes must avoid the
    /// long-busy workers (SSS divide).
    #[test]
    fn short_probes_avoid_long_busy_workers() {
        let machines = vec![AttributeVector::default(); 10];
        let mut jobs = vec![Job {
            id: JobId(0),
            arrival_s: 0.0,
            // 5 long tasks occupy 5 of the 9 non-reserved workers.
            task_durations_s: vec![2_000.0; 5],
            estimated_task_duration_s: 2_000.0,
            constraints: ConstraintSet::unconstrained(),
            short: false,
            user: 0,
        }];
        for i in 1..40u32 {
            jobs.push(Job {
                id: JobId(i),
                arrival_s: 10.0 + f64::from(i),
                task_durations_s: vec![5.0],
                estimated_task_duration_s: 5.0,
                constraints: ConstraintSet::unconstrained(),
                short: true,
                user: 0,
            });
        }
        let trace = Trace::new("t", jobs);
        let result = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(machines),
            &trace,
            Box::new(EagleC::new(BaselineConfig::with_cutoff_s(950.0))),
            1,
        )
        .run();
        assert_eq!(result.incomplete_jobs, 0);
        // With divide working, no short job ever waits behind a 2,000 s
        // long task: worst-case short response stays far below it.
        let mut short = result
            .job_response()
            .by_class(phoenix_metrics::JobClass::Short);
        assert!(
            short.max() < 500.0,
            "short jobs must dodge long-busy workers: max {}",
            short.max()
        );
    }
}
