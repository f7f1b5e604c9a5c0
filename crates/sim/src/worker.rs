//! Worker state: one execution slot plus a probe queue.

use std::collections::VecDeque;
use std::fmt;

use phoenix_traces::JobId;

use crate::probe::Probe;
use crate::time::SimTime;

/// Dense worker identifier; doubles as the index into the machine
/// population of the [`phoenix_constraints::FeasibilityIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkerId(pub u32);

impl WorkerId {
    /// The worker's index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker-{}", self.0)
    }
}

/// A task occupying one of a worker's execution slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningTask {
    /// Owning job.
    pub job: JobId,
    /// When the task will complete.
    pub finish_at: SimTime,
    /// Effective execution time (after any soft-relaxation slowdown),
    /// microseconds.
    pub duration_us: u64,
    /// True task duration before slowdown/clock scaling, microseconds —
    /// what a fault-recovery retry must re-run elsewhere.
    pub raw_duration_us: u64,
    /// Soft-relaxation slowdown the placement carried (1.0 when none).
    pub slowdown: f64,
    /// Whether the task came from an early-bound (centralized) placement.
    pub bound: bool,
    /// Engine-assigned identifier pairing this task with its completion
    /// event (needed once a worker has more than one slot).
    pub seq: u64,
}

/// One worker: execution slot(s) and a reorderable probe queue.
///
/// The paper's simulator gives every worker exactly **one** slot (§V-A:
/// "At each worker node, there is one slot for execution and a queue for
/// tasks waiting to be executed") — the default here. Multi-slot workers
/// are supported as an extension via [`Worker::with_slots`] /
/// [`crate::SimConfig::slots_per_worker`].
#[derive(Debug, Clone)]
pub struct Worker {
    /// Execution slots; a `u32` so the worker packs into 96 B.
    slots: u32,
    running: Vec<RunningTask>,
    /// Sum of the running tasks' `finish_at`, microseconds: with the task
    /// count it gives [`Worker::running_work_us`] without reading the
    /// tasks, whose buffer sits elsewhere on the heap.
    running_finish_sum_us: u64,
    /// Probe queue in service order. Popping the head (every dispatch) is
    /// O(1), and a drained queue releases its buffer.
    queue: VecDeque<Probe>,
    /// Total busy microseconds accumulated (for utilization).
    busy_us: u64,
    /// Sum of bound task durations currently queued, microseconds (an
    /// exact component of estimated queue work).
    queued_bound_work_us: u64,
    /// Sum of the snapshotted estimated durations of queued *speculative*
    /// probes, microseconds — with [`Worker::queued_bound_work_us`] this
    /// makes estimated-queue-work queries O(1) instead of an O(queue) walk
    /// through the job table.
    queued_spec_est_us: u64,
    /// Whether the worker is up. Crashed workers accept no probes and run
    /// no tasks until they recover.
    alive: bool,
}

const _: () = assert!(std::mem::size_of::<Worker>() == 96);

impl Default for Worker {
    fn default() -> Self {
        Self::new()
    }
}

impl Worker {
    /// Creates an idle single-slot worker with an empty queue.
    pub fn new() -> Self {
        Self::with_slots(1)
    }

    /// Creates an idle worker with `slots` execution slots.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero or above `u32::MAX`.
    pub fn with_slots(slots: usize) -> Self {
        assert!(slots >= 1, "a worker needs at least one slot");
        let slots = u32::try_from(slots).expect("a worker has at most u32::MAX slots");
        Worker {
            slots,
            // Reserved on the first launch: at 100k workers most never run
            // a task, and an up-front reservation costs 48 bytes each.
            running: Vec::new(),
            running_finish_sum_us: 0,
            queue: VecDeque::new(),
            busy_us: 0,
            queued_bound_work_us: 0,
            queued_spec_est_us: 0,
            alive: true,
        }
    }

    /// Whether the worker is up.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Marks the worker up or down. Draining the casualties of a crash is
    /// the engine's job ([`crate::SimState::crash_worker`]); this is just
    /// the flag.
    pub fn set_alive(&mut self, alive: bool) {
        self.alive = alive;
    }

    /// Whether a running task carries engine sequence `seq` (used to
    /// tombstone completion events of tasks killed by a crash).
    pub fn has_running_seq(&self, seq: u64) -> bool {
        self.running.iter().any(|t| t.seq == seq)
    }

    /// Drains every running task (a crash kills them mid-flight), returning
    /// the tasks and the total not-yet-executed microseconds, which are
    /// subtracted from [`Worker::busy_us`] (the time was credited in full
    /// at dispatch but never actually runs).
    pub fn take_running_tasks(&mut self, now: SimTime) -> (Vec<RunningTask>, u64) {
        let killed: Vec<RunningTask> = self.running.drain(..).collect();
        self.running_finish_sum_us = 0;
        let unspent: u64 = killed
            .iter()
            .map(|t| t.finish_at.since(now).as_micros())
            .sum();
        self.busy_us = self.busy_us.saturating_sub(unspent);
        (killed, unspent)
    }

    /// Number of execution slots.
    pub fn slots(&self) -> usize {
        self.slots as usize
    }

    /// Whether no task is running on any slot.
    pub fn is_idle(&self) -> bool {
        self.running.is_empty()
    }

    /// Whether the worker runs a task or holds a queued probe.
    pub fn is_busy(&self) -> bool {
        !self.is_idle() || self.queue_len() > 0
    }

    /// Whether at least one slot is free.
    pub fn has_free_slot(&self) -> bool {
        self.running.len() < self.slots()
    }

    /// The running task, if any (the earliest-started one on multi-slot
    /// workers).
    pub fn running(&self) -> Option<&RunningTask> {
        self.running.first()
    }

    /// All tasks currently occupying slots.
    pub fn running_tasks(&self) -> &[RunningTask] {
        &self.running
    }

    /// Occupies a free slot with a task.
    ///
    /// # Panics
    ///
    /// Panics if every slot is busy.
    pub fn start_task(&mut self, task: RunningTask, now: SimTime) {
        assert!(self.has_free_slot(), "worker slot already busy");
        self.busy_us += task.finish_at.since(now).as_micros();
        if self.running.capacity() == 0 {
            self.running.reserve_exact(self.slots());
        }
        self.running_finish_sum_us += task.finish_at.as_micros();
        self.running.push(task);
    }

    /// Microseconds of work left on the running tasks at `now`: the sum of
    /// `finish_at − now` over the occupied slots. A running task never
    /// outlives its `finish_at` (its completion event fires then), so this
    /// is the finish-time sum less `now` per task — O(1), without reading
    /// the tasks.
    pub fn running_work_us(&self, now: SimTime) -> u64 {
        let work = self
            .running_finish_sum_us
            .checked_sub(self.running.len() as u64 * now.as_micros())
            .expect("a running task outlived its finish time");
        debug_assert_eq!(
            work,
            self.running
                .iter()
                .map(|t| t.finish_at.since(now).as_micros())
                .sum::<u64>(),
            "a running task outlived its finish time"
        );
        work
    }

    /// Clears the slot running the task with engine sequence `seq`,
    /// returning it.
    ///
    /// # Panics
    ///
    /// Panics if no running task carries that sequence number.
    pub fn finish_task(&mut self, seq: u64) -> RunningTask {
        let idx = self
            .running
            .iter()
            .position(|t| t.seq == seq)
            .expect("no task running");
        let task = self.running.swap_remove(idx);
        self.running_finish_sum_us -= task.finish_at.as_micros();
        task
    }

    /// The probe queue, in service order.
    pub fn queue(&self) -> &VecDeque<Probe> {
        &self.queue
    }

    /// Recomputes the bound-work aggregate directly from the queue.
    pub fn recomputed_bound_work_us(&self) -> u64 {
        self.queue.iter().filter_map(|p| p.bound_duration_us).sum()
    }

    /// Recomputes the speculative-estimate aggregate directly from the
    /// queue.
    pub fn recomputed_spec_est_us(&self) -> u64 {
        self.queue
            .iter()
            .filter(|p| !p.is_bound())
            .map(|p| p.est_duration_us)
            .sum()
    }

    /// Asserts the cached [`Worker::queued_bound_work_us`] and
    /// [`Worker::queued_spec_est_us`] aggregates still match the queue
    /// contents. Probes enter and leave the queue only through the methods
    /// below, which keep both aggregates; the engine invokes this (debug
    /// builds only) before dispatching a touched worker.
    ///
    /// # Panics
    ///
    /// Panics if a cached aggregate diverged.
    pub fn audit_bound_work(&self) {
        let recomputed = self.recomputed_bound_work_us();
        assert_eq!(
            self.queued_bound_work_us, recomputed,
            "queued_bound_work_us desynced: cached {} vs recomputed {}",
            self.queued_bound_work_us, recomputed
        );
        let spec = self.recomputed_spec_est_us();
        assert_eq!(
            self.queued_spec_est_us, spec,
            "queued_spec_est_us desynced: cached {} vs recomputed {}",
            self.queued_spec_est_us, spec
        );
    }

    /// Adds a probe entering the queue to the work aggregates.
    fn count_in(&mut self, probe: &Probe) {
        match probe.bound_duration_us {
            Some(d) => self.queued_bound_work_us += d,
            None => self.queued_spec_est_us += probe.est_duration_us,
        }
    }

    /// Takes a probe leaving the queue out of the work aggregates.
    fn count_out(&mut self, probe: &Probe) {
        match probe.bound_duration_us {
            Some(d) => self.queued_bound_work_us -= d,
            None => self.queued_spec_est_us -= probe.est_duration_us,
        }
    }

    /// Releases the buffer once the queue drains, so a worker holds queue
    /// memory only while probes are queued on it, not the capacity of its
    /// longest queue ever.
    fn release_if_drained(&mut self) {
        if self.queue.is_empty() {
            self.queue = VecDeque::new();
        }
    }

    /// Appends a probe to the tail of the queue.
    pub fn enqueue(&mut self, probe: Probe) {
        self.count_in(&probe);
        self.queue.push_back(probe);
    }

    /// Inserts a probe at the *front* of the queue without touching bypass
    /// counters.
    ///
    /// This models Eagle's Sticky Batch Probing: the worker that just
    /// finished a task of a job immediately continues with that job's next
    /// task — a continuation of service, not a reordering.
    pub fn enqueue_front(&mut self, probe: Probe) {
        self.count_in(&probe);
        self.queue.push_front(probe);
    }

    /// Removes and returns the probe at `index`. Popping the head is O(1);
    /// other removals shift whichever side of the queue is shorter.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn remove_probe(&mut self, index: usize) -> Probe {
        let probe = self
            .queue
            .remove(index)
            .expect("remove_probe index out of bounds");
        self.count_out(&probe);
        self.release_if_drained();
        probe
    }

    /// Removes and returns every queued probe matching `predicate`, in
    /// queue order (used by work stealing). One pass: `predicate` sees each
    /// queued probe exactly once, head to tail.
    pub fn steal_if(&mut self, mut predicate: impl FnMut(&Probe) -> bool) -> Vec<Probe> {
        let mut stolen = Vec::new();
        self.queue.retain(|p| {
            let steal = predicate(p);
            if steal {
                stolen.push(*p);
            }
            !steal
        });
        for probe in &stolen {
            self.count_out(probe);
        }
        self.release_if_drained();
        stolen
    }

    /// Probes the queue's buffer can hold without growing.
    #[cfg(test)]
    pub(crate) fn ring_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Queue length.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Sum of bound task durations in the queue, microseconds.
    pub fn queued_bound_work_us(&self) -> u64 {
        self.queued_bound_work_us
    }

    /// Sum of snapshotted estimated durations of queued speculative probes,
    /// microseconds.
    pub fn queued_spec_est_us(&self) -> u64 {
        self.queued_spec_est_us
    }

    /// Total busy time accumulated, microseconds.
    pub fn busy_us(&self) -> u64 {
        self.busy_us
    }

    /// Moves the probe at `from` to position `to` (`to <= from`),
    /// incrementing the bypass counter of every probe it overtakes. Returns
    /// the number of probes bypassed and the highest new position of a
    /// bypassed probe whose bypass count is at or above `slack_threshold`
    /// after the increment. CRV reordering uses the latter to keep its
    /// pinned-barrier frontier exact without re-scanning the queue: a probe
    /// pinned *by this very promotion* is a barrier for later promotions in
    /// the same pass.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of bounds or `to > from`.
    pub fn promote(
        &mut self,
        from: usize,
        to: usize,
        slack_threshold: u32,
    ) -> (usize, Option<usize>) {
        assert!(from < self.queue.len(), "promote index out of bounds");
        assert!(to <= from, "promote must move toward the front");
        if from == to {
            return (0, None);
        }
        let mut last_pinned = None;
        // The probe at `pos - 1` lands at `pos` once the promoted one
        // moves in front of it.
        for (pos, p) in (to + 1..).zip(self.queue.range_mut(to..from)) {
            p.bypass_count += 1;
            if p.bypass_count >= slack_threshold {
                last_pinned = Some(pos);
            }
        }
        let probe = self.queue.remove(from).expect("checked above");
        self.queue.insert(to, probe);
        (from - to, last_pinned)
    }

    /// Where the tail probe lands under rank-ordered insertion: walking back
    /// from the tail, it passes every predecessor that ranks strictly
    /// higher and still has bypass budget (`bypass_count <
    /// slack_threshold`), and stops at one that ranks no higher or at a
    /// slack-exhausted one. Returns the landing position and whether the
    /// walk stopped at a slack-exhausted probe the tail outranks. An empty
    /// queue gives `(0, false)`.
    ///
    /// SRPT and CRV insertion both use this walk, each with its own rank,
    /// then move the tail with [`Worker::promote`].
    pub fn tail_insertion_target<R: Ord>(
        &self,
        slack_threshold: u32,
        mut rank: impl FnMut(&Probe) -> R,
    ) -> (usize, bool) {
        let Some(tail) = self.queue.back() else {
            return (0, false);
        };
        let new_rank = rank(tail);
        let mut to = self.queue.len() - 1;
        for prev in self.queue.range(..to).rev() {
            if rank(prev) <= new_rank {
                return (to, false);
            }
            if prev.bypass_count >= slack_threshold {
                return (to, true);
            }
            to -= 1;
        }
        (to, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::ProbeId;

    fn probe(id: u64, bound: Option<u64>) -> Probe {
        Probe {
            id: ProbeId(id),
            job: JobId(0),
            bound_duration_us: bound,
            est_duration_us: 7,
            slowdown: 1.0,
            enqueued_at: SimTime::ZERO,
            bypass_count: 0,
            migrations: 0,
            retries: 0,
        }
    }

    #[test]
    fn slot_lifecycle() {
        let mut w = Worker::new();
        assert!(w.is_idle());
        w.start_task(
            RunningTask {
                job: JobId(1),
                finish_at: SimTime(100),
                duration_us: 60,
                raw_duration_us: 60,
                slowdown: 1.0,
                bound: false,
                seq: 0,
            },
            SimTime(40),
        );
        assert!(!w.is_idle());
        assert_eq!(w.busy_us(), 60);
        let t = w.finish_task(0);
        assert_eq!(t.job, JobId(1));
        assert!(w.is_idle());
    }

    #[test]
    #[should_panic(expected = "already busy")]
    fn double_start_panics() {
        let mut w = Worker::new();
        let t = RunningTask {
            job: JobId(1),
            finish_at: SimTime(1),
            duration_us: 1,
            raw_duration_us: 1,
            slowdown: 1.0,
            bound: false,
            seq: 0,
        };
        w.start_task(t, SimTime::ZERO);
        w.start_task(t, SimTime::ZERO);
    }

    #[test]
    fn bound_work_accounting() {
        let mut w = Worker::new();
        w.enqueue(probe(1, Some(100)));
        w.enqueue(probe(2, None));
        w.enqueue(probe(3, Some(50)));
        assert_eq!(w.queued_bound_work_us(), 150);
        let p = w.remove_probe(0);
        assert_eq!(p.id, ProbeId(1));
        assert_eq!(w.queued_bound_work_us(), 50);
    }

    #[test]
    fn steal_if_removes_matching() {
        let mut w = Worker::new();
        for i in 0..5 {
            w.enqueue(probe(i, if i % 2 == 0 { None } else { Some(10) }));
        }
        let stolen = w.steal_if(|p| !p.is_bound());
        assert_eq!(stolen.len(), 3);
        assert_eq!(w.queue_len(), 2);
        assert!(w.queue().iter().all(Probe::is_bound));
        assert_eq!(w.queued_bound_work_us(), 20);
    }

    #[test]
    fn promote_to_front_counts_bypasses() {
        let mut w = Worker::new();
        for i in 0..4 {
            w.enqueue(probe(i, None));
        }
        assert_eq!(w.promote(2, 0, u32::MAX), (2, None));
        let ids: Vec<u64> = w.queue().iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![2, 0, 1, 3]);
        assert_eq!(w.queue()[1].bypass_count, 1);
        assert_eq!(w.queue()[2].bypass_count, 1);
        assert_eq!(w.queue()[3].bypass_count, 0);
        // Promoting the head is a no-op.
        assert_eq!(w.promote(0, 0, u32::MAX), (0, None));
    }

    #[test]
    fn promote_partial_move_reports_the_last_pinned_probe() {
        let mut w = Worker::new();
        for i in 0..5 {
            w.enqueue(Probe {
                bypass_count: if i == 1 { 1 } else { 0 },
                ..probe(i, None)
            });
        }
        // Probe 1 reaches the threshold of 2 as probe 3 overtakes it and
        // lands at position 2; probe 2 (count 1) stays below it.
        assert_eq!(w.promote(3, 1, 2), (2, Some(2)));
        let ids: Vec<u64> = w.queue().iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![0, 3, 1, 2, 4]);
        assert_eq!(w.queue()[0].bypass_count, 0, "head not overtaken");
        assert_eq!(w.queue()[2].bypass_count, 2);
        assert_eq!(w.queue()[3].bypass_count, 1);
    }

    #[test]
    #[should_panic(expected = "toward the front")]
    fn promote_backwards_panics() {
        let mut w = Worker::new();
        w.enqueue(probe(0, None));
        w.enqueue(probe(1, None));
        let _ = w.promote(0, 1, u32::MAX);
    }

    #[test]
    fn take_running_tasks_refunds_unspent_busy_time() {
        let mut w = Worker::with_slots(2);
        for seq in 0..2u64 {
            w.start_task(
                RunningTask {
                    job: JobId(seq as u32),
                    finish_at: SimTime(100),
                    duration_us: 100,
                    raw_duration_us: 100,
                    slowdown: 1.0,
                    bound: seq == 0,
                    seq,
                },
                SimTime::ZERO,
            );
        }
        assert_eq!(w.busy_us(), 200);
        assert!(w.has_running_seq(1));
        assert_eq!(w.running_work_us(SimTime(60)), 80);
        // Crash at t=60: each task has 40 µs it will never execute.
        let (killed, unspent) = w.take_running_tasks(SimTime(60));
        assert_eq!(killed.len(), 2);
        assert_eq!(unspent, 80);
        assert_eq!(w.busy_us(), 120);
        assert!(w.is_idle());
        assert!(!w.has_running_seq(1));
        assert_eq!(w.running_work_us(SimTime(60)), 0);
    }

    #[test]
    fn running_work_tracks_starts_and_finishes() {
        let task = |seq: u64, finish_at: u64| RunningTask {
            job: JobId(seq as u32),
            finish_at: SimTime(finish_at),
            duration_us: finish_at,
            raw_duration_us: finish_at,
            slowdown: 1.0,
            bound: false,
            seq,
        };
        let mut w = Worker::with_slots(3);
        assert_eq!(w.running_work_us(SimTime(5)), 0);
        w.start_task(task(0, 100), SimTime::ZERO);
        w.start_task(task(1, 40), SimTime(10));
        w.start_task(task(2, 70), SimTime(20));
        assert_eq!(w.running_work_us(SimTime(30)), 70 + 10 + 40);
        w.finish_task(1);
        assert_eq!(w.running_work_us(SimTime(40)), 60 + 30);
        w.finish_task(2);
        assert_eq!(w.running_work_us(SimTime(70)), 30);
        assert_eq!(w.running_work_us(SimTime(100)), 0);
    }

    #[test]
    fn alive_flag_round_trips() {
        let mut w = Worker::new();
        assert!(w.is_alive());
        w.set_alive(false);
        assert!(!w.is_alive());
        w.set_alive(true);
        assert!(w.is_alive());
    }

    #[test]
    fn head_pops_release_a_drained_ring() {
        let mut w = Worker::new();
        for i in 0..100 {
            w.enqueue(probe(i, None));
        }
        for i in 0..99 {
            assert_eq!(w.remove_probe(0).id, ProbeId(i));
        }
        assert!(w.ring_capacity() > 0, "one probe still queued");
        w.remove_probe(0);
        assert_eq!(w.ring_capacity(), 0);
        // The released ring takes probes again, at either end.
        w.enqueue(probe(100, None));
        w.enqueue_front(probe(101, Some(5)));
        let ids: Vec<u64> = w.queue().iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![101, 100]);
        assert_eq!(w.queued_bound_work_us(), 5);
    }

    #[test]
    fn steal_if_releases_a_drained_ring() {
        let mut w = Worker::new();
        for i in 0..40 {
            w.enqueue(probe(i, if i % 3 == 0 { Some(10) } else { None }));
        }
        // A partial steal leaves the bound probes, and their buffer.
        assert_eq!(w.steal_if(|p| !p.is_bound()).len(), 26);
        assert!(w.ring_capacity() > 0);
        assert_eq!(w.steal_if(|_| true).len(), 14);
        assert_eq!(w.queue_len(), 0);
        assert_eq!(w.ring_capacity(), 0);
        assert_eq!(w.queued_bound_work_us(), 0);
        assert_eq!(w.queued_spec_est_us(), 0);
    }

    #[test]
    fn fifo_capacity_stays_within_twice_the_longest_queue() {
        for longest in [1u64, 3, 4, 5, 17, 100] {
            let bound = 2 * longest.max(4) as usize;
            let mut w = Worker::new();
            let mut next = 0;
            let mut head = 0;
            // Fill to `longest`, then cycle pops and pushes so the ring
            // wraps many times, at lengths between 1 and `longest`.
            for round in 0..50u64 {
                while next - head < longest {
                    w.enqueue(probe(next, None));
                    next += 1;
                    assert!(w.ring_capacity() <= bound, "{longest}: grew past {bound}");
                }
                for _ in 0..=round % longest {
                    assert_eq!(w.remove_probe(0).id, ProbeId(head));
                    head += 1;
                }
            }
            while w.queue_len() > 0 {
                assert_eq!(w.remove_probe(0).id, ProbeId(head));
                head += 1;
            }
            assert_eq!(head, next);
            assert_eq!(
                w.ring_capacity(),
                0,
                "{longest}: drained queue kept its buffer"
            );
        }
    }

    #[test]
    #[should_panic(expected = "queued_bound_work_us desynced")]
    fn audit_catches_a_desynced_bound_work_aggregate() {
        let mut w = Worker::new();
        w.enqueue(probe(0, Some(10)));
        w.enqueue(probe(1, None));
        w.audit_bound_work();
        w.queued_bound_work_us += 1;
        w.audit_bound_work();
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_panics() {
        let _ = Worker::with_slots(0);
    }

    #[test]
    #[should_panic(expected = "at most u32::MAX slots")]
    fn more_than_u32_slots_panics() {
        let _ = Worker::with_slots(u32::MAX as usize + 1);
    }

    #[test]
    fn enqueue_front_skips_bypass_accounting() {
        let mut w = Worker::new();
        w.enqueue(probe(0, None));
        w.enqueue_front(probe(1, Some(30)));
        let ids: Vec<u64> = w.queue().iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![1, 0]);
        assert_eq!(w.queue()[1].bypass_count, 0);
        assert_eq!(w.queued_bound_work_us(), 30);
    }
}
