//! Per-job progress tracking inside the simulator: the full state of each
//! job in flight and the compact record every arrived job keeps.

use phoenix_constraints::{ConstraintSet, SetId};
use phoenix_traces::{Job, JobId};

use crate::metrics::JobOutcome;
use crate::time::{SimDuration, SimTime};

/// Runtime state of one job in flight: built from the trace when the job
/// arrives, dropped once the job finishes (see [`JobTable`]).
#[derive(Debug, Clone)]
pub struct JobState {
    /// Job id (index into the trace).
    pub id: JobId,
    /// Arrival time.
    pub arrival: SimTime,
    /// True per-task durations, microseconds, in launch order.
    durations_us: Vec<u64>,
    /// Longest task duration, microseconds — the job's ideal (zero-wait,
    /// fully parallel) response time.
    pub max_task_us: u64,
    /// The job's original constraint set.
    pub constraints: ConstraintSet,
    /// Short/long classification from the trace.
    pub short: bool,
    /// Submitting user/tenant.
    pub user: u32,
    next_task: usize,
    completed: usize,
    failed: bool,
    /// Durations of tasks whose launch was undone by a worker crash; they
    /// are re-launched (LIFO) before any not-yet-launched task.
    requeued_us: Vec<u64>,
    /// Sum of queue waits of launched tasks, microseconds.
    pub wait_sum_us: u64,
    /// Number of launched tasks.
    pub launched: usize,
    /// Launched tasks of a failed job that will never complete: crash
    /// casualties, and bound probes dropped instead of retried.
    abandoned: usize,
    /// Completion time of the last task.
    pub finished_at: Option<SimTime>,
}

/// The scheduler-visible estimated task duration of `job`, microseconds.
fn estimated_task_us(job: &Job) -> u64 {
    SimDuration::from_secs_f64(job.estimated_task_duration_s)
        .as_micros()
        .max(1)
}

impl JobState {
    /// Builds runtime state from a trace job.
    pub fn from_job(job: &Job) -> Self {
        let durations_us: Vec<u64> = job
            .task_durations_s
            .iter()
            .map(|&d| SimDuration::from_secs_f64(d).as_micros().max(1))
            .collect();
        let max_task_us = durations_us.iter().copied().max().unwrap_or(1);
        JobState {
            id: job.id,
            arrival: SimTime::from_secs_f64(job.arrival_s),
            durations_us,
            max_task_us,
            constraints: job.constraints.clone(),
            short: job.short,
            user: job.user,
            next_task: 0,
            completed: 0,
            failed: false,
            requeued_us: Vec::new(),
            wait_sum_us: 0,
            launched: 0,
            abandoned: 0,
            finished_at: None,
        }
    }

    /// Total number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.durations_us.len()
    }

    /// Whether unlaunched tasks remain (and the job was not failed).
    pub fn has_pending(&self) -> bool {
        !self.failed && (!self.requeued_us.is_empty() || self.next_task < self.durations_us.len())
    }

    /// Number of tasks not yet launched (including crash-requeued ones).
    pub fn pending_tasks(&self) -> usize {
        if self.failed {
            0
        } else {
            self.durations_us.len() - self.next_task + self.requeued_us.len()
        }
    }

    /// Number of completed tasks.
    pub fn completed_tasks(&self) -> usize {
        self.completed
    }

    /// Launched tasks given up because the job failed.
    pub(crate) fn abandoned_tasks(&self) -> usize {
        self.abandoned
    }

    /// Launched tasks still running or carried by a bound probe: neither
    /// completed nor abandoned. Saturates, so that the invariant auditor
    /// reports an over-count instead of panicking on it.
    pub(crate) fn in_flight(&self) -> usize {
        self.launched
            .saturating_sub(self.completed)
            .saturating_sub(self.abandoned)
    }

    /// Takes the next unlaunched task, returning its true duration in
    /// microseconds.
    ///
    /// # Panics
    ///
    /// Panics if no task is pending.
    pub(crate) fn take_task(&mut self) -> u64 {
        assert!(self.has_pending(), "no pending task to take");
        let d = if let Some(d) = self.requeued_us.pop() {
            d
        } else {
            let d = self.durations_us[self.next_task];
            self.next_task += 1;
            d
        };
        self.launched += 1;
        d
    }

    /// Returns a killed task's duration to the pending pool after a worker
    /// crash undid its launch. The matching launch is also undone so wait
    /// and completion accounting stay conserved.
    pub(crate) fn requeue_task(&mut self, raw_duration_us: u64) {
        debug_assert!(self.launched > self.completed, "requeue without launch");
        self.launched -= 1;
        self.requeued_us.push(raw_duration_us);
    }

    /// Gives up a launched task of a failed job (killed by a crash, or its
    /// bound probe dropped at retry): it will never complete.
    pub(crate) fn abandon_task(&mut self) {
        debug_assert!(
            self.failed && self.in_flight() > 0,
            "abandon without a task"
        );
        self.abandoned += 1;
    }

    /// Records one task completion at `now`; returns true if this completed
    /// the whole job.
    pub(crate) fn complete_task(&mut self, now: SimTime) -> bool {
        self.completed += 1;
        debug_assert!(self.completed <= self.launched);
        let done = self.completed == self.durations_us.len();
        if done {
            self.finished_at = Some(now);
        }
        done
    }

    /// Marks the job failed (unsatisfiable constraints). Pending tasks are
    /// cancelled; already-running tasks finish normally.
    pub(crate) fn fail(&mut self) {
        self.failed = true;
    }

    /// Whether the job was failed.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Whether every task completed.
    pub fn is_complete(&self) -> bool {
        self.completed == self.durations_us.len()
    }

    /// Whether nothing can touch the job's state any more: it is complete,
    /// or it failed with no task still in flight.
    pub fn is_finished(&self) -> bool {
        self.is_complete() || (self.failed && self.in_flight() == 0)
    }

    /// Whether the job carries constraints (by its *original* set).
    pub fn is_constrained(&self) -> bool {
        !self.constraints.is_unconstrained()
    }

    /// Job response time (arrival → last completion), if complete.
    pub fn response_time(&self) -> Option<SimDuration> {
        self.finished_at.map(|t| t.since(self.arrival))
    }

    /// Mean task queue wait, if any task launched.
    pub fn mean_wait(&self) -> Option<SimDuration> {
        if self.launched == 0 {
            None
        } else {
            Some(SimDuration(self.wait_sum_us / self.launched as u64))
        }
    }

    /// The job's entry in [`crate::SimResult::job_outcomes`].
    pub(crate) fn outcome(&self) -> JobOutcome {
        JobOutcome {
            job: self.id,
            short: self.short,
            user: self.user,
            constrained: self.is_constrained(),
            response_s: self.response_time().map(|d| d.as_secs_f64()),
            mean_wait_s: self.mean_wait().map(|d| d.as_secs_f64()),
            ideal_s: self.max_task_us as f64 / 1e6,
            failed: self.is_failed(),
        }
    }
}

/// [`JobRecord::slot`] of a finished job that completed.
const FINISHED: u32 = u32::MAX;
/// [`JobRecord::slot`] of a finished job that failed.
const FINISHED_FAILED: u32 = u32::MAX - 1;

/// What an arrived job keeps for the rest of the run, finished or not:
/// the fields that readers of its queued or in-flight probes need after
/// it finished. Kept apart from the probes so that a probe sent before
/// admission relaxed the job still reads the job's current set.
#[derive(Debug, Clone, Copy)]
struct JobRecord {
    /// Scheduler-visible estimated task duration, microseconds.
    estimated_task_us: u64,
    /// The constraint set used for placement: the job's own set, interned
    /// when the job arrives, until admission relaxes soft constraints.
    effective: SetId,
    /// Index of the job's state in [`JobTable::live`], or [`FINISHED`] /
    /// [`FINISHED_FAILED`] once the state is gone.
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<JobRecord>() == 16);

/// High-water marks of a run's [`JobTable`]. A memory measurement like
/// [`crate::EventQueueStats`], excluded from [`crate::SimResult::digest`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobTableStats {
    /// Most job states live at once.
    pub peak_live: u64,
    /// Most finished-job records held at once (they are never released,
    /// so this is the number of jobs that finished).
    pub peak_finished: u64,
}

/// The run's jobs. A job has no entry until it arrives. On arrival it gets
/// a [`JobRecord`] and a full [`JobState`] in a dense slab; once it is
/// finished ([`JobState::is_finished`]) the engine writes its
/// [`JobOutcome`] and drops the state, and only the record remains.
///
/// Jobs arrive in id order, so the records are a vector indexed by
/// [`JobId`] that grows with arrivals.
#[derive(Debug, Default)]
pub struct JobTable {
    records: Vec<JobRecord>,
    /// States of the jobs in flight, in no particular order.
    live: Vec<JobState>,
    /// Outcomes of finished jobs, in finish order.
    outcomes: Vec<JobOutcome>,
    /// Σ completed tasks over finished jobs.
    finished_tasks: u64,
    peak_live: usize,
}

impl JobTable {
    /// An empty table with room for a trace of `jobs` jobs.
    pub(crate) fn with_capacity(jobs: usize) -> Self {
        JobTable {
            records: Vec::with_capacity(jobs),
            outcomes: Vec::with_capacity(jobs),
            ..JobTable::default()
        }
    }

    /// Number of jobs that have arrived (ids `0..arrived()`).
    pub fn arrived(&self) -> usize {
        self.records.len()
    }

    /// Admits the arriving `job` with `effective` as its placement set.
    pub(crate) fn arrive(&mut self, job: &Job, effective: SetId) {
        assert_eq!(
            job.id.0 as usize,
            self.records.len(),
            "jobs arrive in id order"
        );
        self.records.push(JobRecord {
            estimated_task_us: estimated_task_us(job),
            effective,
            slot: self.live.len() as u32,
        });
        self.live.push(JobState::from_job(job));
        self.peak_live = self.peak_live.max(self.live.len());
    }

    fn record(&self, id: JobId) -> &JobRecord {
        &self.records[id.0 as usize]
    }

    /// The index of `id`'s live state, if it is in flight.
    fn slot(&self, id: JobId) -> Option<usize> {
        let slot = self.record(id).slot;
        (slot < FINISHED_FAILED).then_some(slot as usize)
    }

    /// The state of `id`, if the job is in flight.
    pub(crate) fn try_get(&self, id: JobId) -> Option<&JobState> {
        self.slot(id).map(|slot| &self.live[slot])
    }

    /// The state of a job in flight.
    ///
    /// # Panics
    ///
    /// Panics if the job has not arrived or has finished.
    pub fn get(&self, id: JobId) -> &JobState {
        match self.try_get(id) {
            Some(job) => job,
            None => panic!("job {} is not in flight", id.0),
        }
    }

    /// Mutable state of a job in flight (panics like [`JobTable::get`]).
    pub(crate) fn get_mut(&mut self, id: JobId) -> &mut JobState {
        match self.slot(id) {
            Some(slot) => &mut self.live[slot],
            None => panic!("job {} is not in flight", id.0),
        }
    }

    /// The states of every job in flight, in no particular order.
    pub(crate) fn live(&self) -> &[JobState] {
        &self.live
    }

    /// Whether `id` arrived and finished (its state is gone).
    pub fn is_finished(&self, id: JobId) -> bool {
        self.records
            .get(id.0 as usize)
            .is_some_and(|r| r.slot >= FINISHED_FAILED)
    }

    /// The constraint set `id` is placed against (its current one, after
    /// any admission relaxation).
    pub fn effective(&self, id: JobId) -> SetId {
        self.record(id).effective
    }

    /// Replaces the set `id` is placed against (admission relaxed it).
    pub(crate) fn set_effective(&mut self, id: JobId, set: SetId) {
        self.records[id.0 as usize].effective = set;
    }

    /// Scheduler-visible estimated task duration of `id`, microseconds.
    pub fn estimated_task_us(&self, id: JobId) -> u64 {
        self.record(id).estimated_task_us
    }

    /// Whether `id` has tasks left to launch; false once it finished.
    pub fn has_pending(&self, id: JobId) -> bool {
        self.try_get(id).is_some_and(JobState::has_pending)
    }

    /// Whether `id` was failed, in flight or finished.
    pub(crate) fn is_failed(&self, id: JobId) -> bool {
        match self.try_get(id) {
            Some(job) => job.is_failed(),
            None => self.record(id).slot == FINISHED_FAILED,
        }
    }

    /// If `id` is in flight but finished, writes its outcome and drops its
    /// state.
    pub(crate) fn retire_if_finished(&mut self, id: JobId) {
        let Some(slot) = self.slot(id) else {
            return;
        };
        if !self.live[slot].is_finished() {
            return;
        }
        let job = self.live.swap_remove(slot);
        if let Some(moved) = self.live.get(slot) {
            self.records[moved.id.0 as usize].slot = slot as u32;
        }
        self.records[id.0 as usize].slot = if job.is_failed() {
            FINISHED_FAILED
        } else {
            FINISHED
        };
        self.finished_tasks += job.completed_tasks() as u64;
        self.outcomes.push(job.outcome());
    }

    /// Outcomes of the finished jobs, in finish order.
    pub(crate) fn finished(&self) -> &[JobOutcome] {
        &self.outcomes
    }

    /// Completed tasks summed over the finished jobs.
    pub(crate) fn finished_tasks(&self) -> u64 {
        self.finished_tasks
    }

    /// The table's high-water marks.
    pub fn stats(&self) -> JobTableStats {
        JobTableStats {
            peak_live: self.peak_live as u64,
            peak_finished: self.outcomes.len() as u64,
        }
    }

    /// Every arrived job's outcome in [`JobId`] order: the finished ones,
    /// plus the jobs still in flight when the run ended.
    pub(crate) fn into_outcomes(self) -> Vec<JobOutcome> {
        let mut outcomes = self.outcomes;
        outcomes.extend(self.live.iter().map(JobState::outcome));
        outcomes.sort_unstable_by_key(|o| o.job.0);
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> JobState {
        JobState::from_job(&Job {
            id: JobId(4),
            arrival_s: 1.0,
            task_durations_s: vec![2.0, 3.0],
            estimated_task_duration_s: 2.5,
            constraints: ConstraintSet::unconstrained(),
            short: true,
            user: 0,
        })
    }

    #[test]
    fn lifecycle() {
        let mut j = job();
        assert!(j.has_pending());
        assert_eq!(j.pending_tasks(), 2);
        let d0 = j.take_task();
        assert_eq!(d0, 2_000_000);
        assert!(!j.complete_task(SimTime(5_000_000)));
        let _ = j.take_task();
        assert!(!j.has_pending());
        assert!(j.complete_task(SimTime(8_000_000)));
        assert!(j.is_complete());
        assert_eq!(j.response_time().unwrap(), SimDuration::from_secs_f64(7.0));
    }

    #[test]
    fn fail_cancels_pending() {
        let mut j = job();
        let _ = j.take_task();
        j.fail();
        assert!(!j.has_pending());
        assert_eq!(j.pending_tasks(), 0);
        assert!(j.is_failed());
        assert!(!j.is_complete());
    }

    #[test]
    #[should_panic(expected = "no pending task")]
    fn take_from_exhausted_panics() {
        let mut j = job();
        let _ = j.take_task();
        let _ = j.take_task();
        let _ = j.take_task();
    }

    #[test]
    fn mean_wait_accumulates() {
        let mut j = job();
        assert!(j.mean_wait().is_none());
        let _ = j.take_task();
        j.wait_sum_us += 100;
        let _ = j.take_task();
        j.wait_sum_us += 300;
        assert_eq!(j.mean_wait().unwrap().as_micros(), 200);
    }

    #[test]
    fn requeue_returns_task_to_pending_pool() {
        let mut j = job();
        let d0 = j.take_task();
        let _ = j.take_task();
        assert!(!j.has_pending());
        // A crash kills the first task mid-run: its duration comes back.
        j.requeue_task(d0);
        assert!(j.has_pending());
        assert_eq!(j.pending_tasks(), 1);
        assert_eq!(j.launched, 1);
        // Relaunch runs the requeued duration, not a fresh trace slot.
        assert_eq!(j.take_task(), d0);
        assert!(!j.has_pending());
        assert!(!j.complete_task(SimTime(1)));
        assert!(j.complete_task(SimTime(2)));
        assert!(j.is_complete());
    }

    #[test]
    fn zero_duration_tasks_are_clamped_to_one_microsecond() {
        let job = Job {
            id: JobId(0),
            arrival_s: 0.0,
            task_durations_s: vec![0.0],
            estimated_task_duration_s: 0.0,
            constraints: ConstraintSet::unconstrained(),
            short: true,
            user: 0,
        };
        let j = JobState::from_job(&job);
        assert_eq!(j.durations_us[0], 1);
        assert_eq!(estimated_task_us(&job), 1);
    }
}
