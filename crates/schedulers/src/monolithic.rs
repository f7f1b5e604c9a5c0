//! Monolithic-C: a Borg/Mesos-style fully centralized scheduler.
//!
//! The upper-left corner of the paper's design space (Fig. 1 / Table I):
//! a single global control plane that **early-binds every task** — long or
//! short — to the least-loaded feasible worker. No probes, no late binding,
//! no queue reordering, no stealing. Constraint handling is exact (the
//! central scheduler sees everything), which is the one advantage this
//! design has; its weakness is that short tasks commit to a queue at
//! arrival and cannot escape a bad pick, and that the single scheduler is
//! a scalability bottleneck in reality (not modelled — the simulator
//! charges only the network delay).

use phoenix_sim::{Scheduler, SimCtx, SimDuration, SimTime};
use phoenix_traces::JobId;

use crate::central::place_long_job;
use crate::config::BaselineConfig;

/// The Monolithic-C scheduler.
///
/// Unlike the probe-based designs, a monolithic scheduler's *control
/// plane* is the bottleneck: every placement decision runs through one
/// logical scheduler. We model this with a per-task decision cost — jobs
/// queue at the scheduler itself before any task reaches a worker. With
/// the default (10 ms/task) the control plane is invisible at the minutes-
/// scale task granularity of the evaluated traces; sweep it upward (see
/// the `sensitivity` binary) to watch the centralized design collapse —
/// the paper's §I scalability argument, measurable.
#[derive(Debug, Clone)]
pub struct MonolithicC {
    config: BaselineConfig,
    decision_cost: SimDuration,
    scheduler_free_at: SimTime,
}

impl MonolithicC {
    /// Creates Monolithic-C with the given shared configuration and the
    /// default 10 ms/task decision cost.
    ///
    /// The short-task reservation is not used: a monolithic scheduler has
    /// no partition (every placement is globally planned).
    pub fn new(config: BaselineConfig) -> Self {
        Self::with_decision_cost(config, SimDuration::from_millis(10))
    }

    /// Creates Monolithic-C with an explicit per-task decision cost.
    pub fn with_decision_cost(config: BaselineConfig, decision_cost: SimDuration) -> Self {
        MonolithicC {
            config,
            decision_cost,
            scheduler_free_at: SimTime::ZERO,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BaselineConfig {
        &self.config
    }

    /// The configured per-task decision cost.
    pub fn decision_cost(&self) -> SimDuration {
        self.decision_cost
    }
}

impl Scheduler for MonolithicC {
    fn name(&self) -> &str {
        "monolithic-c"
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        // The job queues at the central scheduler: placement happens only
        // after the scheduler has worked through everything ahead of it.
        let tasks = ctx.job(job).num_tasks() as u64;
        let start = self.scheduler_free_at.max(ctx.now());
        let done = start + SimDuration(self.decision_cost.as_micros() * tasks);
        self.scheduler_free_at = done;
        let delay = done.since(ctx.now());
        if delay == SimDuration::ZERO {
            place_long_job(ctx, job, 0);
        } else {
            ctx.schedule_wakeup(delay, u64::from(job.0));
        }
    }

    fn on_wakeup(&mut self, token: u64, ctx: &mut SimCtx<'_>) {
        place_long_job(ctx, JobId(token as u32), 0);
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
        let profile = TraceProfile::yahoo();
        let cutoff = profile.short_cutoff_s();
        let mut rng = StdRng::seed_from_u64(seed);
        let cluster = MachinePopulation::generate(profile.population.clone(), nodes, &mut rng);
        let trace = TraceGenerator::new(profile, seed).generate(jobs, nodes, util);
        Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(cluster.into_machines()),
            &trace,
            Box::new(MonolithicC::new(BaselineConfig::with_cutoff_s(cutoff))),
            seed,
        )
        .run()
    }

    #[test]
    fn completes_everything_with_early_binding_only() {
        let r = run(300, 100, 0.6, 1);
        assert_eq!(r.incomplete_jobs, 0);
        assert_eq!(r.counters.probes_sent, 0, "no speculative probes");
        assert_eq!(r.counters.redundant_probes, 0);
        assert_eq!(r.counters.bound_placements, r.counters.tasks_completed);
    }

    #[test]
    fn no_reordering_or_stealing() {
        let r = run(400, 80, 0.85, 2);
        assert_eq!(r.counters.srpt_reordered_tasks, 0);
        assert_eq!(r.counters.stolen_probes, 0);
        assert_eq!(r.counters.sbp_continuations, 0);
    }

    #[test]
    fn decision_cost_queues_jobs_at_the_scheduler() {
        // With a decision cost comparable to task durations, the control
        // plane itself becomes the bottleneck and response times blow up —
        // the paper's centralized-scalability argument.
        let profile = TraceProfile::yahoo();
        let cutoff = profile.short_cutoff_s();
        let mut rng = StdRng::seed_from_u64(9);
        let cluster = MachinePopulation::generate(profile.population.clone(), 100, &mut rng);
        let machines = cluster.into_machines();
        let trace = TraceGenerator::new(profile, 9).generate(600, 100, 0.7);
        let run_with_cost = |cost_ms: u64| {
            Simulation::new(
                SimConfig::default(),
                FeasibilityIndex::new(machines.clone()),
                &trace,
                Box::new(MonolithicC::with_decision_cost(
                    BaselineConfig::with_cutoff_s(cutoff),
                    phoenix_sim::SimDuration::from_millis(cost_ms),
                )),
                9,
            )
            .run()
        };
        let cheap = run_with_cost(10);
        let expensive = run_with_cost(20_000); // 20 s per task decision
        assert_eq!(cheap.incomplete_jobs, 0);
        assert_eq!(expensive.incomplete_jobs, 0);
        let p50 = |r: &phoenix_sim::SimResult| {
            r.class_response_percentile(phoenix_metrics::JobClass::Short, 50.0)
        };
        assert!(
            p50(&expensive) > p50(&cheap) * 3.0,
            "control-plane saturation must dominate: {} vs {}",
            p50(&expensive),
            p50(&cheap)
        );
    }

    #[test]
    fn global_view_keeps_low_load_latencies_tight() {
        // With a global least-loaded view and light load, short jobs should
        // rarely queue at all.
        let r = run(200, 150, 0.3, 3);
        let p50 = r.class_response_percentile(phoenix_metrics::JobClass::Short, 50.0);
        // p50 should be close to pure execution time (tens of seconds).
        assert!(p50 < 200.0, "p50 {p50}");
    }
}
