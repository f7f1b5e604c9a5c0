//! SRPT queue ordering with a starvation bound.
//!
//! Eagle (and Yaq-d) reorder worker queues so that tasks with the Shortest
//! Remaining Processing Time run first, bounded by a per-probe *slack*: a
//! probe that has already been bypassed `slack_threshold` times cannot be
//! overtaken again (§IV-B, §V-A of the Phoenix paper; the same mechanism
//! appears in Eagle).
//!
//! The implementation reorders *on insertion*: the probe at the tail is
//! promoted to its SRPT position, never crossing a slack-exhausted probe or
//! the early-bound probes of the centralized path.

use phoenix_sim::{SimState, Worker, WorkerId};

/// Estimated service time of a queued probe, microseconds: the bound task's
/// duration for early-bound probes, the job's estimated task duration
/// (snapshotted on the probe at creation) for speculative ones.
pub fn probe_estimate_us(state: &SimState, probe: &phoenix_sim::Probe) -> u64 {
    let _ = state; // estimate now travels on the probe; signature kept stable
    probe.estimate_us()
}

/// Applies SRPT insertion to the tail probe of `worker`'s queue: promotes it
/// over queued probes with strictly larger estimates whose bypass budget
/// remains. Returns the number of probes bypassed (0 when no reordering
/// happened).
///
/// Call from [`phoenix_sim::Scheduler::on_probe_enqueued`], when the new
/// probe is guaranteed to sit at the tail.
pub fn srpt_insert_tail(state: &mut SimState, worker: WorkerId, slack_threshold: u32) -> usize {
    let tail = {
        let w = &state.workers[worker.index()];
        match w.queue_len() {
            0 => return 0,
            n => n - 1,
        }
    };
    let new_est = probe_estimate_us(state, &state.workers[worker.index()].queue()[tail]);
    // Find the promotion target: walk backwards from the tail while the
    // preceding probe is strictly longer and still bypassable.
    let mut to = tail;
    {
        let w = &state.workers[worker.index()];
        while to > 0 {
            let prev = &w.queue()[to - 1];
            let prev_est = prev.estimate_us();
            if prev_est > new_est && prev.bypass_count < slack_threshold {
                to -= 1;
            } else {
                break;
            }
        }
    }
    let moved = state.workers[worker.index()].promote(tail, to);
    if moved > 0 {
        state.metrics.counters.srpt_reordered_tasks += 1;
    } else if to == tail && tail > 0 {
        // Check whether the slack bound (rather than SRPT order) pinned the
        // probe: the predecessor was longer but exhausted.
        let w = &state.workers[worker.index()];
        let prev = &w.queue()[tail - 1];
        let prev_est = prev.estimate_us();
        if prev_est > new_est && prev.bypass_count >= slack_threshold {
            state.metrics.counters.starvation_suppressions += 1;
        }
    }
    moved
}

/// Whether a queue is SRPT-ordered *modulo* slack-pinned probes: every
/// adjacent inversion (a longer probe directly ahead of a shorter one) must
/// be explained by the longer probe having exhausted its bypass budget.
/// Used by tests and property checks.
pub fn is_srpt_ordered_modulo_slack(
    state: &SimState,
    worker: &Worker,
    slack_threshold: u32,
) -> bool {
    let q = worker.queue();
    for i in 1..q.len() {
        let prev = probe_estimate_us(state, &q[i - 1]);
        let cur = probe_estimate_us(state, &q[i]);
        if prev > cur && q[i - 1].bypass_count < slack_threshold {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_constraints::{FeasibilityIndex, MachinePopulation, PopulationProfile};
    use phoenix_sim::{Probe, ProbeId, SimConfig, SimTime, Simulation};
    use phoenix_traces::{Job, JobId, Trace};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds a state whose jobs 0..n have estimated durations `ests` (s).
    fn state_with_jobs(ests: &[f64]) -> phoenix_sim::SimState {
        let mut rng = StdRng::seed_from_u64(1);
        let cluster = MachinePopulation::generate(PopulationProfile::google_like(), 2, &mut rng);
        let jobs: Vec<Job> = ests
            .iter()
            .enumerate()
            .map(|(i, &e)| Job {
                id: JobId(i as u32),
                arrival_s: 0.0,
                task_durations_s: vec![e],
                estimated_task_duration_s: e,
                constraints: Default::default(),
                short: true,
                user: 0,
            })
            .collect();
        let trace = Trace::new("t", jobs);
        let sim = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(cluster.into_machines()),
            &trace,
            Box::new(phoenix_sim::RandomScheduler::new(1)),
            1,
        );
        sim.into_state_for_tests()
    }

    fn push_probe(state: &mut phoenix_sim::SimState, worker: WorkerId, job: u32) {
        let probe = Probe {
            id: ProbeId(job as u64),
            job: JobId(job),
            bound_duration_us: None,
            est_duration_us: state.jobs.estimated_task_us(JobId(job)),
            slowdown: 1.0,
            enqueued_at: SimTime::ZERO,
            bypass_count: 0,
            migrations: 0,
            retries: 0,
        };
        state.workers[worker.index()].enqueue(probe);
    }

    #[test]
    fn srpt_promotes_short_over_long() {
        let mut state = state_with_jobs(&[30.0, 20.0, 5.0]);
        let w = WorkerId(0);
        for j in 0..3 {
            push_probe(&mut state, w, j);
            srpt_insert_tail(&mut state, w, 5);
        }
        let order: Vec<u32> = state.workers[0].queue().iter().map(|p| p.job.0).collect();
        assert_eq!(order, vec![2, 1, 0], "shortest job first");
        assert!(state.metrics.counters.srpt_reordered_tasks >= 2);
        assert!(is_srpt_ordered_modulo_slack(&state, &state.workers[0], 5));
    }

    #[test]
    fn srpt_is_stable_for_equal_estimates() {
        let mut state = state_with_jobs(&[10.0, 10.0]);
        let w = WorkerId(0);
        push_probe(&mut state, w, 0);
        srpt_insert_tail(&mut state, w, 5);
        push_probe(&mut state, w, 1);
        srpt_insert_tail(&mut state, w, 5);
        let order: Vec<u32> = state.workers[0].queue().iter().map(|p| p.job.0).collect();
        assert_eq!(order, vec![0, 1], "FIFO among equals");
    }

    #[test]
    fn slack_threshold_pins_probes() {
        let mut state = state_with_jobs(&[100.0, 1.0, 2.0, 3.0]);
        let w = WorkerId(0);
        push_probe(&mut state, w, 0); // long probe at head
        srpt_insert_tail(&mut state, w, 2);
        // Two short probes bypass the long one, exhausting its slack of 2.
        for j in [1u32, 2] {
            push_probe(&mut state, w, j);
            srpt_insert_tail(&mut state, w, 2);
        }
        assert_eq!(state.workers[0].queue()[2].job.0, 0);
        assert_eq!(state.workers[0].queue()[2].bypass_count, 2);
        // A third short probe must NOT bypass it.
        push_probe(&mut state, w, 3);
        srpt_insert_tail(&mut state, w, 2);
        let order: Vec<u32> = state.workers[0].queue().iter().map(|p| p.job.0).collect();
        assert_eq!(order, vec![1, 2, 0, 3], "job 0 pinned by slack bound");
        assert_eq!(state.metrics.counters.starvation_suppressions, 1);
    }

    #[test]
    fn empty_queue_is_noop() {
        let mut state = state_with_jobs(&[1.0]);
        assert_eq!(srpt_insert_tail(&mut state, WorkerId(0), 5), 0);
    }
}
