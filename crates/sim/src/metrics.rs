//! Simulation metrics: everything the paper's tables and figures need.

use std::fmt;

use phoenix_constraints::CacheStats;
use phoenix_metrics::{
    ClassifiedLatencies, ConstraintStatus, Distribution, JobClass, LatencyKey, TimeSeries,
};

use crate::audit::AuditReport;
use crate::crvledger::QueueStats;
use crate::event::EventQueueStats;
use crate::jobstate::{JobState, JobTableStats};
use crate::profile::ProfileReport;
use crate::time::{SimDuration, SimTime};

/// Monotone counters, some engine-maintained and some scheduler-maintained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Speculative probes sent to workers.
    pub probes_sent: u64,
    /// Speculative probes discarded because their job had no pending task.
    pub redundant_probes: u64,
    /// Early-bound task placements.
    pub bound_placements: u64,
    /// Tasks completed.
    pub tasks_completed: u64,
    /// Jobs completed.
    pub jobs_completed: u64,
    /// Jobs failed by admission control (unsatisfiable hard constraints).
    pub jobs_failed: u64,
    /// Tasks launched with at least one relaxed soft constraint.
    pub relaxed_tasks: u64,
    /// Tasks promoted by heartbeat CRV-based reordering (Algorithm 1's
    /// `Reorder_Task` count — the paper's Table III statistic).
    pub crv_reordered_tasks: u64,
    /// Queue moves performed by the CRV insertion discipline during
    /// contention windows (continuous counterpart of the heartbeat pass).
    pub crv_insertions: u64,
    /// Queue promotions performed by SRPT reordering.
    pub srpt_reordered_tasks: u64,
    /// Probes moved by work stealing.
    pub stolen_probes: u64,
    /// Constrained probes migrated by Phoenix's dynamic rescheduling.
    pub migrated_probes: u64,
    /// Sticky-batch-probing continuations (local probes a worker enqueues
    /// for the job it just served; not network probes).
    pub sbp_continuations: u64,
    /// Promotions suppressed by the starvation (slack) bound.
    pub starvation_suppressions: u64,
    /// Fault injection: worker crash strikes delivered.
    pub worker_crashes: u64,
    /// Fault injection: crashed workers that came back up.
    pub worker_recoveries: u64,
    /// Fault injection: running tasks killed by crashes.
    pub tasks_killed: u64,
    /// Fault injection: probes lost in flight or addressed to dead workers.
    pub probes_lost: u64,
    /// Fault injection: probe re-placements performed after loss/kill.
    pub probe_retries: u64,
    /// Fault injection: probe deliveries that paid an extra delay.
    pub probes_delayed: u64,
    /// Fault injection: task launches undone by a crash and returned to
    /// their job's pending pool.
    pub requeued_tasks: u64,
}

/// Metrics accumulated during a run.
#[derive(Debug, Clone)]
pub struct SimMetrics {
    /// Job response times (arrival → last task completion), seconds.
    pub job_response: ClassifiedLatencies,
    /// Per-job mean task queuing times, seconds.
    pub job_queuing: ClassifiedLatencies,
    /// Per-task queue waits, seconds (optional, heavy).
    pub task_waits: Distribution,
    /// Queuing delay over time for constrained jobs (Fig. 3).
    pub constrained_wait_series: TimeSeries,
    /// Queuing delay over time for unconstrained jobs (Fig. 3).
    pub unconstrained_wait_series: TimeSeries,
    /// Counters.
    pub counters: Counters,
    /// Completion time of the last task.
    pub makespan: SimTime,
    /// Sum of busy slot time across workers, microseconds.
    pub busy_us: u64,
    /// Whether each task's queue wait feeds the heavy per-task
    /// `task_waits` distribution (the Fig.-3 time series are always fed).
    pub record_task_waits: bool,
}

impl SimMetrics {
    /// Creates empty metrics with the given time-series bucket width.
    /// `record_task_waits` gates only the per-task `task_waits`
    /// distribution, never the Fig.-3 time series.
    pub fn new(bucket: SimDuration, record_task_waits: bool) -> Self {
        let width = bucket.as_secs_f64().max(1e-6);
        SimMetrics {
            job_response: ClassifiedLatencies::new(),
            job_queuing: ClassifiedLatencies::new(),
            task_waits: Distribution::new(),
            constrained_wait_series: TimeSeries::new(width),
            unconstrained_wait_series: TimeSeries::new(width),
            counters: Counters::default(),
            makespan: SimTime::ZERO,
            busy_us: 0,
            record_task_waits,
        }
    }

    /// The (class, status) key for a job.
    pub fn key_for(job: &JobState) -> LatencyKey {
        LatencyKey::new(
            if job.short {
                JobClass::Short
            } else {
                JobClass::Long
            },
            if job.is_constrained() {
                ConstraintStatus::Constrained
            } else {
                ConstraintStatus::Unconstrained
            },
        )
    }

    /// Records a completed job's response and queuing metrics.
    pub(crate) fn record_job_completion(&mut self, job: &JobState) {
        let key = Self::key_for(job);
        if let Some(resp) = job.response_time() {
            self.job_response.record(key, resp.as_secs_f64());
        }
        if let Some(wait) = job.mean_wait() {
            self.job_queuing.record(key, wait.as_secs_f64());
        }
        self.counters.jobs_completed += 1;
    }

    /// Records one task launch's queue wait at simulated time `now`.
    ///
    /// The constrained/unconstrained time series (Fig. 3) are always fed;
    /// the heavy per-task `task_waits` distribution only when
    /// `record_task_waits` was set. This is the single wait-recording path
    /// — the engine's `try_dispatch` calls it rather than inlining a copy
    /// that can drift.
    pub(crate) fn record_task_wait(&mut self, job: &JobState, wait: SimDuration, now: SimTime) {
        let w = wait.as_secs_f64();
        if job.is_constrained() {
            self.constrained_wait_series.record(now.as_secs_f64(), w);
        } else {
            self.unconstrained_wait_series.record(now.as_secs_f64(), w);
        }
        if self.record_task_waits {
            self.task_waits.record(w);
        }
    }
}

/// Per-job outcome retained in the result for offline analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobOutcome {
    /// Job id within the trace.
    pub job: phoenix_traces::JobId,
    /// Short/long classification.
    pub short: bool,
    /// Submitting user/tenant.
    pub user: u32,
    /// Whether the job's original set carried constraints.
    pub constrained: bool,
    /// Response time, seconds (`None` for failed jobs).
    pub response_s: Option<f64>,
    /// Mean task queue wait, seconds.
    pub mean_wait_s: Option<f64>,
    /// Ideal zero-wait response time (the longest task), seconds.
    pub ideal_s: f64,
    /// Whether admission control failed the job.
    pub failed: bool,
}

impl JobOutcome {
    /// Job slowdown: response over the ideal zero-wait response
    /// (`None` until complete). Always ≥ 1 up to rounding.
    pub fn slowdown(&self) -> Option<f64> {
        self.response_s.map(|r| r / self.ideal_s.max(1e-9))
    }
}

/// The outcome of a finished simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Scheduler name that produced this run.
    pub scheduler: String,
    /// Number of workers simulated.
    pub workers: usize,
    /// Execution slots per worker (≥ 1); utilization normalizes by
    /// `workers × slots`, not workers alone.
    pub slots_per_worker: usize,
    /// All metrics.
    pub metrics: SimMetrics,
    /// Counters (duplicated out of `metrics` for convenience).
    pub counters: Counters,
    /// Jobs that never completed (should be 0 for a well-formed run unless
    /// admission control failed them).
    pub incomplete_jobs: usize,
    /// Tasks of non-failed jobs that never completed — the liveness
    /// headline: must be 0 even under fault injection (every lost or
    /// killed task is retried until it lands).
    pub lost_tasks: u64,
    /// Per-job outcomes, in trace ([`phoenix_traces::JobId`]) order.
    pub job_outcomes: Vec<JobOutcome>,
    /// Total per-worker crash downtime, microseconds, clamped to the
    /// makespan. Pure capacity accounting derived from the fault schedule
    /// (not a new outcome), so it is excluded from `digest()` — the fault
    /// counters already pin the crash schedule.
    pub downtime_us: u64,
    /// Federation gossip/sampling statistics (`None` unless
    /// [`crate::FederationConfig::is_partitioned`]). Observability only,
    /// excluded from `digest()`.
    pub federation: Option<crate::federation::FederationStats>,
    /// Hot-path wall-clock profile (`None` unless profiling was enabled).
    /// Wall-clock varies run to run, so this is excluded from `digest()`.
    pub profile: Option<ProfileReport>,
    /// Invariant-audit outcome (`None` unless
    /// [`crate::Simulation::enable_audit`] was called). Auditing observes
    /// without participating, so this is excluded from `digest()` — an
    /// audited run must digest identically to an unaudited one.
    pub audit: Option<AuditReport>,
    /// What the run's set table had built by the end of the run
    /// ([`phoenix_constraints::SetTable::stats`]).
    /// Deterministic for a given run, so it replays exactly, but it is a
    /// memory measurement, not an outcome: excluded from `digest()`.
    pub set_cache: CacheStats,
    /// What the run's event queue peaked at
    /// ([`crate::EventQueue::stats`]). Deterministic like `set_cache`,
    /// and like it a memory measurement excluded from `digest()`.
    pub event_queue: EventQueueStats,
    /// What the run's job table peaked at ([`crate::JobTable::stats`]):
    /// live job states and finished-job records. Deterministic, and a
    /// memory measurement excluded from `digest()`.
    pub job_table: JobTableStats,
    /// What the run's worker queues peaked at
    /// ([`crate::CrvLedger::queue_stats`]): most probes queued across the
    /// cluster at once. Deterministic, and a memory measurement excluded
    /// from `digest()`.
    pub queues: QueueStats,
}

impl SimResult {
    /// Cluster utilization: busy slot time over *available* slot time
    /// until the makespan. `busy_us` accumulates across every execution
    /// slot, so the base capacity is `makespan × workers × slots` —
    /// dividing by workers alone reads > 100% on any loaded multi-slot
    /// run. Crashed-worker downtime (`downtime_us`, already clamped to the
    /// makespan) is capacity the cluster never had, so it is subtracted
    /// from the denominator — the naive formula undercounts utilization on
    /// every faulted run.
    pub fn utilization(&self) -> f64 {
        let slots = self.slots_per_worker.max(1);
        let capacity_us =
            self.metrics.makespan.as_micros() * (self.workers as u64) * (slots as u64);
        let available = capacity_us.saturating_sub(self.downtime_us * slots as u64) as f64;
        if available == 0.0 {
            return 0.0;
        }
        self.metrics.busy_us as f64 / available
    }

    /// Percentile of job response time for a (class, status) cell, seconds.
    pub fn response_percentile(&self, key: LatencyKey, p: f64) -> f64 {
        let mut d = self.metrics.job_response.cell(key).clone();
        d.percentile(p)
    }

    /// Percentile of job response time for a whole class, seconds.
    pub fn class_response_percentile(&self, class: JobClass, p: f64) -> f64 {
        self.metrics.job_response.by_class(class).percentile(p)
    }

    /// FNV-1a fingerprint over the run's deterministic content: makespan,
    /// busy time, every counter, `lost_tasks`, and all per-job outcomes
    /// (bit-exact floats). Two runs with the same fingerprint produced
    /// byte-identical results — the regression and determinism tests
    /// compare digests.
    pub fn digest(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(self.scheduler.as_bytes());
        eat(&(self.workers as u64).to_le_bytes());
        eat(&self.metrics.makespan.as_micros().to_le_bytes());
        eat(&self.metrics.busy_us.to_le_bytes());
        // Exhaustive destructure (no `..`): adding a counter field without
        // covering it in the fingerprint is a compile error, not a silent
        // regression-test blind spot. Keep the feed order in sync with the
        // declaration order, or every golden digest shifts.
        let Counters {
            probes_sent,
            redundant_probes,
            bound_placements,
            tasks_completed,
            jobs_completed,
            jobs_failed,
            relaxed_tasks,
            crv_reordered_tasks,
            crv_insertions,
            srpt_reordered_tasks,
            stolen_probes,
            migrated_probes,
            sbp_continuations,
            starvation_suppressions,
            worker_crashes,
            worker_recoveries,
            tasks_killed,
            probes_lost,
            probe_retries,
            probes_delayed,
            requeued_tasks,
        } = self.counters;
        for v in [
            probes_sent,
            redundant_probes,
            bound_placements,
            tasks_completed,
            jobs_completed,
            jobs_failed,
            relaxed_tasks,
            crv_reordered_tasks,
            crv_insertions,
            srpt_reordered_tasks,
            stolen_probes,
            migrated_probes,
            sbp_continuations,
            starvation_suppressions,
            worker_crashes,
            worker_recoveries,
            tasks_killed,
            probes_lost,
            probe_retries,
            probes_delayed,
            requeued_tasks,
        ] {
            eat(&v.to_le_bytes());
        }
        eat(&(self.incomplete_jobs as u64).to_le_bytes());
        eat(&self.lost_tasks.to_le_bytes());
        for o in &self.job_outcomes {
            eat(&o.job.0.to_le_bytes());
            eat(&[
                u8::from(o.short),
                u8::from(o.constrained),
                u8::from(o.failed),
            ]);
            eat(&o.user.to_le_bytes());
            eat(&o.response_s.unwrap_or(-1.0).to_bits().to_le_bytes());
            eat(&o.mean_wait_s.unwrap_or(-1.0).to_bits().to_le_bytes());
            eat(&o.ideal_s.to_bits().to_le_bytes());
        }
        h
    }
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} jobs done ({} failed, {} incomplete), util {:.1}%, short p99 {:.2}s",
            self.scheduler,
            self.counters.jobs_completed,
            self.counters.jobs_failed,
            self.incomplete_jobs,
            self.utilization() * 100.0,
            self.class_response_percentile(JobClass::Short, 99.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_constraints::{Constraint, ConstraintKind, ConstraintOp, ConstraintSet};
    use phoenix_traces::{Job, JobId};

    fn job(constrained: bool, short: bool) -> JobState {
        let constraints = if constrained {
            ConstraintSet::from_constraints(vec![Constraint::hard(
                ConstraintKind::NumCores,
                ConstraintOp::Gt,
                4,
            )])
        } else {
            ConstraintSet::unconstrained()
        };
        JobState::from_job(&Job {
            id: JobId(0),
            arrival_s: 0.0,
            task_durations_s: vec![1.0],
            estimated_task_duration_s: 1.0,
            constraints,
            short,
            user: 0,
        })
    }

    #[test]
    fn key_classification() {
        let k = SimMetrics::key_for(&job(true, true));
        assert_eq!(k.class, JobClass::Short);
        assert_eq!(k.status, ConstraintStatus::Constrained);
        let k = SimMetrics::key_for(&job(false, false));
        assert_eq!(k.class, JobClass::Long);
        assert_eq!(k.status, ConstraintStatus::Unconstrained);
    }

    #[test]
    fn job_completion_recording() {
        let mut m = SimMetrics::new(SimDuration::from_secs(60), true);
        let mut j = job(false, true);
        let _ = j.take_task();
        j.wait_sum_us += 2_000_000;
        j.complete_task(SimTime::from_secs_f64(5.0));
        m.record_job_completion(&j);
        assert_eq!(m.counters.jobs_completed, 1);
        let key = SimMetrics::key_for(&j);
        assert_eq!(m.job_response.cell(key).len(), 1);
        let mut q = m.job_queuing.cell(key).clone();
        assert!((q.percentile(50.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn task_wait_series_split_by_constraint_status() {
        let mut m = SimMetrics::new(SimDuration::from_secs(1), true);
        m.record_task_wait(&job(true, true), SimDuration::from_secs(1), SimTime(0));
        m.record_task_wait(&job(false, true), SimDuration::from_secs(2), SimTime(0));
        assert_eq!(m.constrained_wait_series.len(), 1);
        assert_eq!(m.unconstrained_wait_series.len(), 1);
        assert_eq!(m.task_waits.len(), 2);
    }

    /// The `record_task_waits` gate suppresses only the heavy per-task
    /// distribution; the Fig.-3 time series must keep recording.
    #[test]
    fn task_wait_gate_spares_the_time_series() {
        let mut m = SimMetrics::new(SimDuration::from_secs(1), false);
        m.record_task_wait(&job(true, true), SimDuration::from_secs(1), SimTime(0));
        m.record_task_wait(&job(false, true), SimDuration::from_secs(2), SimTime(0));
        assert_eq!(m.constrained_wait_series.len(), 1);
        assert_eq!(m.unconstrained_wait_series.len(), 1);
        assert_eq!(m.task_waits.len(), 0, "distribution is gated off");
    }

    fn result_with(workers: usize, slots: usize, makespan_us: u64, busy_us: u64) -> SimResult {
        let mut m = SimMetrics::new(SimDuration::from_secs(60), false);
        m.makespan = SimTime(makespan_us);
        m.busy_us = busy_us;
        SimResult {
            scheduler: "test".into(),
            workers,
            slots_per_worker: slots,
            counters: m.counters,
            metrics: m,
            incomplete_jobs: 0,
            lost_tasks: 0,
            job_outcomes: Vec::new(),
            downtime_us: 0,
            federation: None,
            profile: None,
            audit: None,
            set_cache: CacheStats::default(),
            event_queue: EventQueueStats::default(),
            job_table: JobTableStats::default(),
            queues: QueueStats::default(),
        }
    }

    #[test]
    fn utilization_math() {
        let r = result_with(1, 1, 1_000_000, 500_000);
        assert!((r.utilization() - 0.5).abs() < 1e-12);
        assert!(!r.to_string().is_empty());
    }

    /// Multi-slot workers accumulate `busy_us` across every slot, so the
    /// denominator must scale by the slot count: 4 workers × 2 slots fully
    /// busy for the whole makespan is 100%, not 200%.
    #[test]
    fn utilization_normalizes_by_slot_count() {
        let saturated = result_with(4, 2, 1_000_000, 8_000_000);
        assert!((saturated.utilization() - 1.0).abs() < 1e-12);
        let half = result_with(4, 2, 1_000_000, 4_000_000);
        assert!((half.utilization() - 0.5).abs() < 1e-12);
    }

    /// A crashed worker's downtime is capacity the cluster never had;
    /// subtracting it must raise utilization, and a fully-busy surviving
    /// cluster must read exactly 100%, never more.
    #[test]
    fn utilization_excludes_crash_downtime() {
        // 2 workers × 1 s makespan; one worker down for the last 0.5 s,
        // the rest of the capacity fully busy: 1.5 s busy / 1.5 s avail.
        let mut r = result_with(2, 1, 1_000_000, 1_500_000);
        assert!((r.utilization() - 0.75).abs() < 1e-12, "naive before fix");
        r.downtime_us = 500_000;
        assert!((r.utilization() - 1.0).abs() < 1e-12);
        // Downtime scales by the slot count on multi-slot workers.
        let mut r = result_with(2, 2, 1_000_000, 3_000_000);
        r.downtime_us = 500_000;
        assert!((r.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let m = SimMetrics::new(SimDuration::from_secs(60), false);
        let mut r = SimResult {
            scheduler: "test".into(),
            workers: 4,
            slots_per_worker: 1,
            counters: m.counters,
            metrics: m,
            incomplete_jobs: 0,
            lost_tasks: 0,
            downtime_us: 0,
            federation: None,
            profile: None,
            audit: None,
            set_cache: CacheStats::default(),
            event_queue: EventQueueStats::default(),
            job_table: JobTableStats::default(),
            queues: QueueStats::default(),
            job_outcomes: vec![JobOutcome {
                job: JobId(7),
                short: true,
                user: 1,
                constrained: false,
                response_s: Some(1.25),
                mean_wait_s: None,
                ideal_s: 1.0,
                failed: false,
            }],
        };
        let d = r.digest();
        assert_eq!(d, r.digest(), "digest must be deterministic");
        r.counters.probes_lost += 1;
        assert_ne!(d, r.digest(), "fault counters must be covered");
        r.counters.probes_lost -= 1;
        r.event_queue.peak_pending += 1;
        assert_eq!(d, r.digest(), "queue high-water marks stay out");
        r.job_table.peak_live += 1;
        assert_eq!(d, r.digest(), "job-table high-water marks stay out");
        r.queues.peak_queued += 1;
        assert_eq!(d, r.digest(), "probe-queue high-water marks stay out");
        r.job_outcomes[0].response_s = Some(1.250000001);
        assert_ne!(d, r.digest(), "outcomes must be covered bit-exactly");
    }
}
