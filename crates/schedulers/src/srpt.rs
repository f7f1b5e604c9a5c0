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

use phoenix_sim::{Probe, SimState, Worker, WorkerId};

/// Applies SRPT insertion to the tail probe of `worker`'s queue: promotes it
/// over queued probes with strictly larger estimates
/// ([`Probe::estimate_us`]) whose bypass budget remains. Returns the number
/// of probes bypassed (0 when no reordering happened).
///
/// A starvation suppression is counted only when the tail did not move
/// because the probe directly ahead of it is longer but slack-exhausted.
///
/// Call from [`phoenix_sim::Scheduler::on_probe_enqueued`], when the new
/// probe is guaranteed to sit at the tail.
pub fn srpt_insert_tail(state: &mut SimState, worker: WorkerId, slack_threshold: u32) -> usize {
    let w = state.worker(worker);
    let Some(tail) = w.queue_len().checked_sub(1) else {
        return 0;
    };
    let (to, pinned) = w.tail_insertion_target(slack_threshold, Probe::estimate_us);
    let (moved, _) = state.promote_probe(worker, tail, to, slack_threshold);
    if moved > 0 {
        state.counters.srpt_reordered_tasks += 1;
    } else if pinned {
        state.counters.starvation_suppressions += 1;
    }
    moved
}

/// Whether a queue is SRPT-ordered *modulo* slack-pinned probes: every
/// adjacent inversion (a longer probe directly ahead of a shorter one) must
/// be explained by the longer probe having exhausted its bypass budget.
/// Used by tests and property checks.
pub fn is_srpt_ordered_modulo_slack(worker: &Worker, slack_threshold: u32) -> bool {
    let q = worker.queue();
    (1..q.len()).all(|i| {
        q[i - 1].estimate_us() <= q[i].estimate_us() || q[i - 1].bypass_count >= slack_threshold
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_constraints::{FeasibilityIndex, MachinePopulation, PopulationProfile};
    use phoenix_sim::{ProbeId, SimConfig, SimTime, Simulation};
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
        push_probe_bypassed(state, worker, job, 0);
    }

    /// Queues job `job`'s probe with `bypass_count` bypasses already spent.
    fn push_probe_bypassed(
        state: &mut phoenix_sim::SimState,
        worker: WorkerId,
        job: u32,
        bypass_count: u32,
    ) {
        let probe = Probe {
            id: ProbeId(job as u64),
            job: JobId(job),
            bound_duration_us: None,
            est_duration_us: state.jobs.estimated_task_us(JobId(job)),
            slowdown: 1.0,
            enqueued_at: SimTime::ZERO,
            bypass_count,
            migrations: 0,
            retries: 0,
        };
        state.enqueue_probe(worker, probe);
    }

    /// Worker 0's queue, as job ids in service order. Also checks that the
    /// busy-worker count matches the workers holding or running work.
    fn order(state: &phoenix_sim::SimState) -> Vec<u32> {
        let busy = state.workers().iter().filter(|w| w.is_busy()).count();
        assert_eq!(state.busy_workers(), busy, "busy-worker count drifted");
        state
            .worker(WorkerId(0))
            .queue()
            .iter()
            .map(|p| p.job.0)
            .collect()
    }

    #[test]
    fn srpt_promotes_short_over_long() {
        let mut state = state_with_jobs(&[30.0, 20.0, 5.0]);
        let w = WorkerId(0);
        for j in 0..3 {
            push_probe(&mut state, w, j);
            srpt_insert_tail(&mut state, w, 5);
        }
        assert_eq!(order(&state), vec![2, 1, 0], "shortest job first");
        assert!(state.counters.srpt_reordered_tasks >= 2);
        assert!(is_srpt_ordered_modulo_slack(state.worker(WorkerId(0)), 5));
    }

    #[test]
    fn srpt_is_stable_for_equal_estimates() {
        let mut state = state_with_jobs(&[10.0, 10.0]);
        let w = WorkerId(0);
        push_probe(&mut state, w, 0);
        srpt_insert_tail(&mut state, w, 5);
        push_probe(&mut state, w, 1);
        srpt_insert_tail(&mut state, w, 5);
        assert_eq!(order(&state), vec![0, 1], "FIFO among equals");
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
        let pinned = &state.worker(w).queue()[2];
        assert_eq!(pinned.job.0, 0);
        assert_eq!(pinned.bypass_count, 2);
        // A third short probe must NOT bypass it.
        push_probe(&mut state, w, 3);
        srpt_insert_tail(&mut state, w, 2);
        assert_eq!(
            order(&state),
            vec![1, 2, 0, 3],
            "job 0 pinned by slack bound"
        );
        assert_eq!(state.counters.starvation_suppressions, 1);
    }

    #[test]
    fn partial_move_to_a_pinned_probe_is_not_a_suppression() {
        // The tail overtakes job 1 and stops behind the slack-exhausted
        // job 0: SRPT counts the reorder, not a suppression.
        let mut state = state_with_jobs(&[100.0, 50.0, 1.0]);
        let w = WorkerId(0);
        push_probe_bypassed(&mut state, w, 0, 2);
        push_probe(&mut state, w, 1);
        push_probe(&mut state, w, 2);
        assert_eq!(srpt_insert_tail(&mut state, w, 2), 1);
        assert_eq!(order(&state), vec![0, 2, 1]);
        assert_eq!(state.counters.srpt_reordered_tasks, 1);
        assert_eq!(state.counters.starvation_suppressions, 0);
    }

    #[test]
    fn empty_queue_is_noop() {
        let mut state = state_with_jobs(&[1.0]);
        assert_eq!(srpt_insert_tail(&mut state, WorkerId(0), 5), 0);
    }
}
