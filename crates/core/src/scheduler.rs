//! The Phoenix scheduler (Fig. 5 + Algorithm 1).
//!
//! Phoenix = Eagle's hybrid machinery (centralized long-job placement with
//! a short partition, distributed short-job probes avoiding long-busy
//! workers, sticky batch probing, SRPT with a starvation bound, work
//! stealing) **plus** the CRV control loop. The first half is literal:
//! [`Phoenix`] holds an [`EagleC`] and delegates SSS set-up, long jobs,
//! the task-finish path (SBP, then stealing) and the crash hook to it.
//! Phoenix itself owns short-job placement, queue ordering and retries:
//!
//! * every heartbeat the [`CrvMonitor`] refreshes the demand/supply lookup
//!   table and the [`WaitEstimator`] provides per-worker `E[W]`;
//! * when the hottest constraint kind's ratio exceeds `CRV_threshold`,
//!   every worker whose `E[W]` exceeds `Qwait_threshold` has its queue
//!   reordered by CRV ([`crv_reorder_queue`]) instead of SRPT;
//! * probe placement negotiates soft constraints via
//!   [`negotiate_targets`] when a job's full set is unsatisfiable.

use phoenix_constraints::ConstraintKind;
use phoenix_schedulers::{srpt::srpt_insert_tail, EagleC};
use phoenix_sim::{
    KindCrv, ProfileScope, Scheduler, SimCtx, SimDuration, TraceRecord, WorkerId, WorkerLoad,
};
use phoenix_traces::JobId;

use crate::admission::negotiate_targets;
use crate::config::PhoenixConfig;
use crate::estimator::WaitEstimator;
use crate::monitor::CrvMonitor;
use crate::reorder::{crv_insert_tail, crv_reorder_queue};

/// Maximum times one probe may be migrated between queues.
const MAX_MIGRATIONS: u8 = 2;

/// Demand/supply ratio beyond which a constraint kind counts as contended
/// (`CRV_threshold`, Algorithm 1): above 1 there is more queued demand
/// than idle supply.
const CRV_THRESHOLD: f64 = 1.0;

/// Expected wait beyond which a worker queue is CRV-reordered and its
/// constrained probes may migrate (`Qwait_threshold`, Algorithm 1).
const QWAIT_THRESHOLD: SimDuration = SimDuration::from_secs(30);

const HEARTBEAT_TOKEN: u64 = 0;

/// The Phoenix constraint-aware hybrid scheduler.
#[derive(Debug)]
pub struct Phoenix {
    config: PhoenixConfig,
    monitor: CrvMonitor,
    estimator: WaitEstimator,
    /// The Eagle-C machinery Phoenix builds on: SSS, long-job placement,
    /// SBP and stealing.
    eagle: EagleC,
    heartbeat_scheduled: bool,
    /// True while the CRV trigger condition held at the last heartbeat —
    /// during such windows queues are CRV-ordered rather than SRPT-ordered.
    crv_mode: bool,
}

impl Phoenix {
    /// Creates Phoenix with the given configuration.
    pub fn new(config: PhoenixConfig) -> Self {
        Phoenix {
            eagle: EagleC::new(config.baseline.clone()),
            config,
            monitor: CrvMonitor::new(),
            estimator: WaitEstimator::new(0),
            heartbeat_scheduled: false,
            crv_mode: false,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PhoenixConfig {
        &self.config
    }

    /// The CRV monitor (read access for instrumentation).
    pub fn monitor(&self) -> &CrvMonitor {
        &self.monitor
    }

    /// Whether the last heartbeat found the cluster in CRV contention mode.
    pub fn in_crv_mode(&self) -> bool {
        self.crv_mode
    }

    fn ensure_initialized(&mut self, ctx: &mut SimCtx<'_>) {
        self.eagle.ensure_initialized(ctx);
        if self.estimator.is_empty() {
            self.estimator = WaitEstimator::new(ctx.num_workers());
        }
        if !self.heartbeat_scheduled {
            ctx.schedule_wakeup(self.config.heartbeat, HEARTBEAT_TOKEN);
            self.heartbeat_scheduled = true;
        }
    }

    /// Ranks candidate workers for a constrained job by estimated queue
    /// wait, combining the CRV monitor's aggregated queue view with the
    /// per-worker P-K estimate, and returns the `want` best.
    fn pick_least_wait(
        &self,
        ctx: &SimCtx<'_>,
        mut candidates: Vec<WorkerId>,
        want: usize,
    ) -> Vec<WorkerId> {
        // Dead workers look attractively empty; prefer live ones whenever
        // any exist (pure filter — identical when every worker is alive).
        if candidates.iter().any(|&w| ctx.worker(w).is_alive()) {
            candidates.retain(|&w| ctx.worker(w).is_alive());
        }
        let mut scored: Vec<(u64, WorkerId)> = candidates
            .into_iter()
            .map(|w| {
                let queued = phoenix_schedulers::estimated_queue_work_us(ctx.state(), w);
                let pk = self.estimator.expected_wait(w).map_or(0, |d| d.as_micros());
                (queued + pk, w)
            })
            .collect();
        scored.sort_by_key(|&(score, w)| (score, w.0));
        scored.into_iter().take(want).map(|(_, w)| w).collect()
    }

    fn place_short(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        let (set, tasks, constrained) = {
            let j = ctx.job(job);
            (ctx.effective(job), j.num_tasks(), j.is_constrained())
        };
        let want = tasks * self.config.baseline.probe_ratio as usize;
        // Constrained jobs fight over few feasible workers; Phoenix
        // oversamples candidates and sends probes to the queues with the
        // least estimated wait (§IV-A). Unconstrained jobs keep Eagle's
        // random placement — the cluster at large balances them already.
        let sample = if constrained { want * 3 } else { want };
        let long_busy = self.eagle.long_busy();
        let negotiation = if self.config.admission_control {
            negotiate_targets(ctx, set, sample, self.monitor.table(), |w| {
                long_busy.is_long_busy(WorkerId(w))
            })
        } else {
            // Ablation: fall back to the baselines' trivial ladder.
            let placement = phoenix_schedulers::choose_targets(ctx, set, sample, |w| {
                long_busy.is_long_busy(WorkerId(w))
            });
            placement.map(|placement| {
                let relaxed = matches!(placement, phoenix_schedulers::Placement::HardOnly(..));
                let effective = if relaxed {
                    let hard = ctx.sets().get(set).hard_only();
                    ctx.intern(&hard)
                } else {
                    set
                };
                crate::admission::Negotiation {
                    placement,
                    effective,
                    relaxed: usize::from(relaxed),
                }
            })
        };
        let Some(negotiation) = negotiation else {
            ctx.fail_job(job);
            return;
        };
        if negotiation.relaxed > 0 {
            ctx.set_effective(job, negotiation.effective);
        }
        let slowdown = negotiation.placement.slowdown();
        let workers = if constrained {
            // For small constraint classes the monitor knows every feasible
            // worker (the `CRV_Lookup_Table` caches the class lists); rank
            // the whole class. For large classes rank the random sample.
            // The count comes first, so only small classes build a list.
            let effective = ctx.effective(job);
            let candidates: Vec<WorkerId> = if ctx.count_feasible(effective) <= 256 {
                let class = ctx.feasible_ids(effective);
                class.iter().map(|&w| WorkerId(w)).collect()
            } else {
                negotiation.placement.workers().to_vec()
            };
            let ranked = self.pick_least_wait(ctx, candidates, want);
            // Honor the job's affinity preference among the equally-good
            // low-wait candidates.
            phoenix_schedulers::apply_placement_preference(
                ctx.state(),
                ranked,
                ctx.sets().get(effective).placement(),
            )
        } else {
            negotiation.placement.workers().to_vec()
        };
        for i in 0..want {
            let worker = workers[i % workers.len()];
            let mut probe = ctx.new_probe(job);
            probe.slowdown = slowdown;
            ctx.send_probe(worker, probe);
        }
    }

    /// Dynamic probe rescheduling: during contention, constrained probes
    /// stuck deep in over-threshold queues are recalled and re-sent to the
    /// feasible worker with the least estimated wait (§VII-B: Phoenix
    /// "dynamically rescheduling the probes of constrained tasks based on
    /// CRV"). Bounded per probe by [`MAX_MIGRATIONS`].
    fn migrate_stuck_probes(&mut self, ctx: &mut SimCtx<'_>) {
        let qwait_us = QWAIT_THRESHOLD.as_micros();
        for i in 0..ctx.num_workers() {
            let worker = WorkerId(i as u32);
            if ctx.worker(worker).queue_len() < 2 {
                continue;
            }
            // Collect migration candidates: speculative constrained probes
            // whose estimated wait here exceeds the threshold. One pass
            // accumulates the prefix wait (running remainder plus estimated
            // durations ahead) instead of re-walking the prefix per
            // candidate — same values as `queue_wait_ahead_us` at each
            // index, O(queue) per worker instead of O(queue²).
            let candidates: Vec<(phoenix_sim::ProbeId, phoenix_traces::JobId, u64)> = {
                let state = ctx.state();
                let w = &state.workers[worker.index()];
                let mut ahead_us = w.running_work_us(state.now);
                let mut candidates = Vec::new();
                for p in w.queue() {
                    // A speculative probe may outlive its job: only a job
                    // with pending tasks is still in flight.
                    if !p.is_bound()
                        && p.migrations < MAX_MIGRATIONS
                        && state.jobs.has_pending(p.job)
                        && state.jobs.get(p.job).is_constrained()
                        && ahead_us > qwait_us
                    {
                        candidates.push((p.id, p.job, ahead_us));
                    }
                    ahead_us += p.estimate_us();
                }
                candidates
            };
            for (probe_id, job, wait_here) in candidates {
                let set = ctx.effective(job);
                let alternatives = ctx.sample_feasible_workers_excluding(set, 6, |w| w == worker.0);
                let best = self
                    .pick_least_wait(ctx, alternatives, 1)
                    .into_iter()
                    .next();
                let Some(best) = best else { continue };
                let wait_there = phoenix_schedulers::estimated_queue_work_us(ctx.state(), best);
                // Only migrate for a clear improvement (at least halving
                // the wait) to avoid thrashing.
                if wait_there * 2 < wait_here {
                    if let Some(mut probe) = ctx.remove_probe_by_id(worker, probe_id) {
                        probe.migrations += 1;
                        ctx.counters_mut().migrated_probes += 1;
                        let at_us = ctx.now().as_micros();
                        ctx.state_mut()
                            .tracer_mut()
                            .emit(|| TraceRecord::Migration {
                                at_us,
                                job: job.0,
                                from: worker.0,
                                to: best.0,
                            });
                        ctx.transfer_probe(best, probe);
                        ctx.touch(worker);
                    }
                }
            }
        }
    }

    /// Builds the per-heartbeat monitor snapshot record: per-kind CRV
    /// demand/supply, per-worker ρ and `E[W]`, and the queue-length
    /// histogram. Only called when a trace sink is attached.
    fn heartbeat_snapshot(&self, ctx: &SimCtx<'_>) -> TraceRecord {
        let table = self.monitor.table();
        let crv: Vec<KindCrv> = ConstraintKind::ALL
            .iter()
            .map(|&kind| KindCrv {
                kind,
                demand: table.demand(kind),
                supply: table.supply(kind),
            })
            .filter(|c| c.demand > 0.0 || c.supply > 0.0)
            .collect();
        let workers: Vec<WorkerLoad> = (0..ctx.num_workers())
            .filter_map(|i| {
                let w = WorkerId(i as u32);
                let rho = self.estimator.rho(w)?;
                let expected_wait_us = self.estimator.expected_wait(w).map_or(0, |d| d.as_micros());
                Some(WorkerLoad {
                    worker: w.0,
                    rho,
                    expected_wait_us,
                })
            })
            .collect();
        let queue_histogram =
            phoenix_sim::trace::queue_histogram(ctx.state().workers.iter().map(|w| w.queue_len()));
        TraceRecord::Heartbeat {
            at_us: ctx.now().as_micros(),
            crv_mode: self.crv_mode,
            crv,
            workers,
            queue_histogram,
        }
    }

    fn heartbeat(&mut self, ctx: &mut SimCtx<'_>) {
        let started = ctx.state().profiler().begin();
        self.monitor.refresh(ctx.state());
        ctx.state_mut()
            .profiler_mut()
            .end(ProfileScope::HeartbeatRefresh, started);
        let (_, max_ratio) = self.monitor.max_ratio();
        self.crv_mode = self.config.crv_reordering && max_ratio > CRV_THRESHOLD;
        if ctx.state().tracer().enabled() {
            let record = self.heartbeat_snapshot(ctx);
            ctx.state_mut().tracer_mut().emit_record(record);
        }
        if self.crv_mode {
            let started = ctx.state().profiler().begin();
            let crv = self.monitor.crv();
            let slack = self.config.baseline.slack_threshold;
            for i in 0..ctx.num_workers() {
                let worker = WorkerId(i as u32);
                if ctx.worker(worker).queue_len() < 2 {
                    continue;
                }
                let over = self
                    .estimator
                    .expected_wait(worker)
                    .is_some_and(|w| w > QWAIT_THRESHOLD);
                if over {
                    crv_reorder_queue(ctx.state_mut(), worker, &crv, slack);
                }
            }
            self.migrate_stuck_probes(ctx);
            ctx.state_mut()
                .profiler_mut()
                .end(ProfileScope::Reorder, started);
        }
        // Keep the loop alive only while there is outstanding work.
        let state = ctx.state();
        if state.busy_workers() > 0 || state.pending_jobs() > 0 {
            ctx.schedule_wakeup(self.config.heartbeat, HEARTBEAT_TOKEN);
        } else {
            self.heartbeat_scheduled = false;
        }
    }
}

impl Scheduler for Phoenix {
    fn name(&self) -> &str {
        "phoenix"
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        self.ensure_initialized(ctx);
        let est = ctx.estimated_task_us(job);
        if self.config.baseline.is_short(est) {
            self.place_short(job, ctx);
        } else {
            self.eagle.place_long(job, ctx);
        }
    }

    fn on_wakeup(&mut self, token: u64, ctx: &mut SimCtx<'_>) {
        if token == HEARTBEAT_TOKEN {
            self.heartbeat(ctx);
        }
    }

    fn on_probe_enqueued(&mut self, worker: WorkerId, ctx: &mut SimCtx<'_>) {
        self.estimator.record_arrival(worker, ctx.now());
        // §IV-A: "Phoenix opportunistically adapts itself to the CRV based
        // reordering from SRPT during peak loads" — during contention
        // windows the insertion discipline itself becomes CRV-priority
        // (hot-dimension probes first, SRPT within a priority class);
        // otherwise it is plain SRPT, exactly like Eagle.
        if self.crv_mode {
            let crv = self.monitor.crv();
            crv_insert_tail(
                ctx.state_mut(),
                worker,
                &crv,
                self.config.baseline.slack_threshold,
            );
        } else {
            srpt_insert_tail(
                ctx.state_mut(),
                worker,
                self.config.baseline.slack_threshold,
            );
        }
    }

    fn on_task_finish(
        &mut self,
        worker: WorkerId,
        job: JobId,
        duration_us: u64,
        ctx: &mut SimCtx<'_>,
    ) {
        self.estimator
            .record_service(worker, SimDuration(duration_us));
        self.eagle.on_task_finish(worker, job, duration_us, ctx);
    }

    fn on_probe_retry(&mut self, probe: phoenix_sim::Probe, ctx: &mut SimCtx<'_>) {
        // Re-place with Phoenix's wait-aware policy: sample live feasible
        // workers and pick the least estimated wait.
        let Some(set) = ctx.retry_set(&probe) else {
            return;
        };
        let candidates = ctx.sample_feasible_workers(set, 4);
        match self.pick_least_wait(ctx, candidates, 1).into_iter().next() {
            Some(w) => ctx.resend_probe(w, probe),
            None => ctx.retry_probe_later(probe),
        }
    }

    fn on_worker_crash(&mut self, worker: WorkerId, ctx: &mut SimCtx<'_>) {
        self.eagle.on_worker_crash(worker, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_constraints::{FeasibilityIndex, MachinePopulation};
    use phoenix_metrics::JobClass;
    use phoenix_schedulers::{BaselineConfig, EagleC};
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
        let profile = TraceProfile::google();
        let cutoff = profile.short_cutoff_s();
        let mut rng = StdRng::seed_from_u64(seed);
        let cluster = MachinePopulation::generate(profile.population.clone(), nodes, &mut rng);
        let trace = TraceGenerator::new(profile, seed).generate(jobs, nodes, util);
        (cluster.into_machines(), trace, cutoff)
    }

    fn run_phoenix(jobs: usize, nodes: usize, util: f64, seed: u64) -> phoenix_sim::SimResult {
        let (machines, trace, cutoff) = build(jobs, nodes, util, seed);
        Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(machines),
            &trace,
            Box::new(Phoenix::new(PhoenixConfig::with_cutoff_s(cutoff))),
            seed,
        )
        .run()
    }

    #[test]
    fn completes_all_jobs() {
        let r = run_phoenix(400, 120, 0.7, 1);
        assert_eq!(r.incomplete_jobs, 0);
        assert_eq!(r.counters.jobs_completed + r.counters.jobs_failed, 400);
    }

    #[test]
    fn deterministic() {
        let a = run_phoenix(200, 80, 0.8, 5);
        let b = run_phoenix(200, 80, 0.8, 5);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.metrics.makespan, b.metrics.makespan);
    }

    #[test]
    fn crv_reordering_fires_under_contention() {
        let r = run_phoenix(1500, 60, 0.92, 2);
        assert!(
            r.counters.crv_reordered_tasks > 0,
            "CRV reordering must trigger at ~90% utilization: {:?}",
            r.counters
        );
    }

    #[test]
    fn admission_control_negotiates_rather_than_failing() {
        // Phoenix vs Eagle on the same trace: Phoenix's negotiation must
        // fail no more jobs than the baseline ladder (both end at
        // hard-only, but Phoenix may stop earlier).
        let (machines, trace, cutoff) = build(400, 50, 0.7, 3);
        let phoenix = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(machines.clone()),
            &trace,
            Box::new(Phoenix::new(PhoenixConfig::with_cutoff_s(cutoff))),
            3,
        )
        .run();
        let eagle = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(machines),
            &trace,
            Box::new(EagleC::new(BaselineConfig::with_cutoff_s(cutoff))),
            3,
        )
        .run();
        assert!(phoenix.counters.jobs_failed <= eagle.counters.jobs_failed);
    }

    #[test]
    fn improves_constrained_short_tail_over_eagle_under_load() {
        // The headline claim (Fig. 7): at high utilization Phoenix improves
        // short-job p99 response over Eagle-C. Scaled down, we only require
        // Phoenix not to lose, and to win on the constrained cell.
        let (machines, trace, cutoff) = build(2000, 80, 0.9, 7);
        let phoenix = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(machines.clone()),
            &trace,
            Box::new(Phoenix::new(PhoenixConfig::with_cutoff_s(cutoff))),
            7,
        )
        .run();
        let eagle = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(machines),
            &trace,
            Box::new(EagleC::new(BaselineConfig::with_cutoff_s(cutoff))),
            7,
        )
        .run();
        let pp99 = phoenix.class_response_percentile(JobClass::Short, 99.0);
        let ep99 = eagle.class_response_percentile(JobClass::Short, 99.0);
        assert!(
            pp99 <= ep99 * 1.05,
            "phoenix short p99 {pp99} must not lose to eagle {ep99}"
        );
    }

    #[test]
    fn long_jobs_are_not_hurt() {
        let (machines, trace, cutoff) = build(1000, 80, 0.85, 9);
        let phoenix = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(machines.clone()),
            &trace,
            Box::new(Phoenix::new(PhoenixConfig::with_cutoff_s(cutoff))),
            9,
        )
        .run();
        let eagle = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(machines),
            &trace,
            Box::new(EagleC::new(BaselineConfig::with_cutoff_s(cutoff))),
            9,
        )
        .run();
        let pl = phoenix.class_response_percentile(JobClass::Long, 90.0);
        let el = eagle.class_response_percentile(JobClass::Long, 90.0);
        assert!(
            pl <= el * 1.25,
            "phoenix long p90 {pl} must stay close to eagle {el} (Fig. 8)"
        );
    }

    #[test]
    fn ablation_flags_disable_mechanisms() {
        let (machines, trace, cutoff) = build(800, 60, 0.9, 11);
        let mut config = PhoenixConfig::with_cutoff_s(cutoff);
        config.crv_reordering = false;
        let r = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(machines),
            &trace,
            Box::new(Phoenix::new(config)),
            11,
        )
        .run();
        assert_eq!(r.counters.crv_reordered_tasks, 0);
    }
}
