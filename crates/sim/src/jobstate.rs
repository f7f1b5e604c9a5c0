//! Per-job progress tracking inside the simulator.

use phoenix_constraints::{ConstraintSet, SetId};
use phoenix_traces::{Job, JobId};

use crate::time::{SimDuration, SimTime};

/// Runtime state of one job.
#[derive(Debug, Clone)]
pub struct JobState {
    /// Job id (index into the simulation's job table).
    pub id: JobId,
    /// Arrival time.
    pub arrival: SimTime,
    /// True per-task durations, microseconds, in launch order.
    durations_us: Vec<u64>,
    /// Scheduler-visible estimated task duration, microseconds.
    pub estimated_task_us: u64,
    /// Longest task duration, microseconds — the job's ideal (zero-wait,
    /// fully parallel) response time.
    pub max_task_us: u64,
    /// The job's original constraint set.
    pub constraints: ConstraintSet,
    /// The constraint set actually used for placement: the job's own set,
    /// interned in the run's `SetTable` when the job arrives, until
    /// admission control relaxes soft constraints.
    effective: Option<SetId>,
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
    /// Completion time of the last task.
    pub finished_at: Option<SimTime>,
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
            estimated_task_us: SimDuration::from_secs_f64(job.estimated_task_duration_s)
                .as_micros()
                .max(1),
            constraints: job.constraints.clone(),
            effective: None,
            short: job.short,
            user: job.user,
            next_task: 0,
            completed: 0,
            failed: false,
            requeued_us: Vec::new(),
            wait_sum_us: 0,
            launched: 0,
            finished_at: None,
        }
    }

    /// The interned constraint set used for placement. Panics before the
    /// job has arrived.
    pub fn effective(&self) -> SetId {
        self.effective.expect("the job has arrived")
    }

    /// Replaces the set used for placement (admission relaxed the job's
    /// constraints).
    pub fn set_effective(&mut self, set: SetId) {
        self.effective = Some(set);
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

    /// Takes the next unlaunched task, returning its true duration in
    /// microseconds.
    ///
    /// # Panics
    ///
    /// Panics if no task is pending.
    pub fn take_task(&mut self) -> u64 {
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
    pub fn requeue_task(&mut self, raw_duration_us: u64) {
        debug_assert!(self.launched > self.completed, "requeue without launch");
        self.launched -= 1;
        self.requeued_us.push(raw_duration_us);
    }

    /// Records one task completion at `now`; returns true if this completed
    /// the whole job.
    pub fn complete_task(&mut self, now: SimTime) -> bool {
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
    pub fn fail(&mut self) {
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
        let j = JobState::from_job(&Job {
            id: JobId(0),
            arrival_s: 0.0,
            task_durations_s: vec![0.0],
            estimated_task_duration_s: 0.0,
            constraints: ConstraintSet::unconstrained(),
            short: true,
            user: 0,
        });
        assert_eq!(j.durations_us[0], 1);
        assert_eq!(j.estimated_task_us, 1);
    }
}
