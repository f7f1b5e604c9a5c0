//! Mercury-C: hybrid control plane with *early* task binding.
//!
//! Mercury (Karanasos et al., ATC'15) splits the control plane like Hawk —
//! a central scheduler for "guaranteed" (long) containers, distributed
//! schedulers for "queueable" (short) containers — but binds queueable
//! tasks **early** into worker queues instead of using Sparrow-style
//! probes. Distributed placement picks the least-loaded of a few sampled
//! feasible workers using the load information distributed via heartbeats.
//! There is no queue reordering and no stealing (Table I of the Phoenix
//! paper places Mercury at hybrid/early with no reordering); Mercury's
//! load-shedding/re-queueing machinery is approximated by the bounded
//! queue preference shared with Yaq-d.

use phoenix_sim::{Scheduler, SimCtx};
use phoenix_traces::JobId;

use crate::central::place_long_job;
use crate::config::BaselineConfig;
use crate::placement::resolve_constraint_level;
use crate::yaqd::least_loaded_under_bound;

/// The Mercury-C scheduler.
#[derive(Debug, Clone)]
pub struct MercuryC {
    config: BaselineConfig,
}

impl MercuryC {
    /// Creates Mercury-C with the given shared configuration.
    pub fn new(config: BaselineConfig) -> Self {
        MercuryC { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BaselineConfig {
        &self.config
    }

    fn place_short(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        let Some((set, slowdown)) = resolve_constraint_level(ctx, job) else {
            return;
        };
        let d = (self.config.probe_ratio as usize * 2).max(2);
        while ctx.job(job).has_pending() {
            let duration = ctx.take_task(job);
            let candidates = ctx.sample_feasible_workers(set, d);
            debug_assert!(!candidates.is_empty());
            let best =
                least_loaded_under_bound(ctx.state(), &candidates).expect("candidates non-empty");
            let mut probe = ctx.new_bound_probe(job, duration);
            probe.slowdown = slowdown;
            ctx.send_probe(best, probe);
        }
    }
}

impl Scheduler for MercuryC {
    fn name(&self) -> &str {
        "mercury-c"
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        let est = ctx.estimated_task_us(job);
        if self.config.is_short(est) {
            self.place_short(job, ctx);
        } else {
            let reserved = self.config.reserved_workers(ctx.num_workers());
            place_long_job(ctx, job, reserved);
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
        let profile = TraceProfile::cloudera();
        let cutoff = profile.short_cutoff_s();
        let mut rng = StdRng::seed_from_u64(seed);
        let cluster = MachinePopulation::generate(profile.population.clone(), nodes, &mut rng);
        let trace = TraceGenerator::new(profile, seed).generate(jobs, nodes, util);
        Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(cluster.into_machines()),
            &trace,
            Box::new(MercuryC::new(BaselineConfig::with_cutoff_s(cutoff))),
            seed,
        )
        .run()
    }

    #[test]
    fn completes_all_jobs_early_bound() {
        let r = run(400, 100, 0.6, 1);
        assert_eq!(r.incomplete_jobs, 0);
        assert_eq!(r.counters.probes_sent, 0, "mercury early-binds everything");
        assert_eq!(r.counters.bound_placements, r.counters.tasks_completed);
        assert_eq!(r.counters.srpt_reordered_tasks, 0, "no reordering");
    }

    #[test]
    fn short_jobs_beat_monolithic_centralized_under_load() {
        // Mercury's distributed short-job path reacts faster than pure
        // central placement because the short partition shields it from
        // long work; at minimum it must not collapse.
        let r = run(600, 80, 0.9, 2);
        assert_eq!(r.incomplete_jobs, 0);
        let p99 = r.class_response_percentile(JobClass::Short, 99.0);
        assert!(p99.is_finite() && p99 > 0.0);
    }
}
