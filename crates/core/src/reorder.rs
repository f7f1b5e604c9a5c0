//! CRV-based queue reordering (Algorithm 1 of the paper).
//!
//! When contention is detected (some constraint kind's demand/supply ratio
//! above `CRV_threshold` and the worker's `E[W]` above `Qwait_threshold`),
//! the worker queue is stably partitioned so that probes demanding the
//! most-contended CRV dimension run first — draining the hot resource's
//! backlog and cutting the cascading delays of Fig. 3. The starvation slack
//! bounds how many times any probe can be bypassed.

use phoenix_constraints::{Crv, CrvDimension};
use phoenix_sim::{Probe, SimState, TraceRecord, WorkerId};

/// Whether a probe's job demands the given CRV dimension.
fn demands_dimension(state: &SimState, probe: &Probe, dim: CrvDimension) -> bool {
    let set = state.sets.get(state.jobs.effective(probe.job));
    set.iter().any(|c| c.kind.crv_dimension() == dim)
}

/// Reorders `worker`'s queue so probes demanding `crv`'s most-contended
/// dimension come first (stable among themselves), without bypassing any
/// probe whose bypass budget (`slack_threshold`) is exhausted. Returns the
/// number of probes promoted.
///
/// Mirrors `CRV_based_reordering` in Algorithm 1: `Max_CRV ← getMax(CRV)`,
/// promote tasks matching the max dimension, bounded by the slack check.
///
/// The pass is O(queue + moved items): instead of re-scanning
/// `[insert_pos, i)` for the last pinned barrier per hot probe (the
/// historical quadratic walk, kept as a reference oracle by the
/// `reorder_equivalence` proptest suite), a single forward walk maintains
/// the barrier frontier incrementally. Two facts keep it exact:
///
/// * a promotion always lands *after* the last known barrier, so the
///   rotation never shifts a previously recorded barrier; and
/// * the only barriers a promotion can create are among the probes it
///   bypasses (their bypass budget may run out mid-pass), which
///   [`SimState::promote_probe`] reports from the same loop that
///   increments them.
pub fn crv_reorder_queue(
    state: &mut SimState,
    worker: WorkerId,
    crv: &Crv,
    slack_threshold: u32,
) -> usize {
    let (hot_dim, hot_ratio) = crv.max_dimension();
    if hot_ratio <= 0.0 {
        return 0;
    }
    let len = state.worker(worker).queue_len();
    let mut promoted = 0usize;
    // `insert_pos`: where the next hot probe should land (just after the
    // hot prefix built so far).
    let mut insert_pos = 0usize;
    // Barrier frontier: one past the last pinned (slack-exhausted) probe
    // seen so far. A hot probe may only land just after the last pinned
    // barrier; barriers at or before `insert_pos` are neutralized by the
    // `max` below, exactly like the reference walk ignoring `j <
    // insert_pos`.
    let mut barrier = 0usize;
    for i in 0..len {
        let (is_hot, is_pinned) = {
            let probe = &state.worker(worker).queue()[i];
            // Only speculative (short-job) probes are promoted: Phoenix
            // must not accelerate long jobs at short jobs' expense (Fig. 8
            // shows long-job response times unchanged).
            (
                !probe.is_bound() && demands_dimension(state, probe, hot_dim),
                probe.bypass_count >= slack_threshold,
            )
        };
        if !is_hot {
            if is_pinned {
                barrier = i + 1;
            }
            continue;
        }
        if i == insert_pos {
            insert_pos += 1;
            continue;
        }
        let target = insert_pos.max(barrier);
        if target < i {
            let (_, newly_pinned) = state.promote_probe(worker, i, target, slack_threshold);
            if let Some(pos) = newly_pinned {
                barrier = pos + 1;
            }
            state.metrics.counters.crv_reordered_tasks += 1;
            promoted += 1;
            insert_pos = target + 1;
        } else {
            state.metrics.counters.starvation_suppressions += 1;
            let at_us = state.now.as_micros();
            state.tracer_mut().emit(|| TraceRecord::Suppression {
                at_us,
                worker: worker.0,
            });
            insert_pos = i + 1;
        }
    }
    if promoted > 0 {
        let at_us = state.now.as_micros();
        state.tracer_mut().emit(|| TraceRecord::Reorder {
            at_us,
            worker: worker.0,
            promoted: promoted as u32,
        });
    }
    promoted
}

/// CRV-aware insertion for the tail probe of `worker`'s queue, used while
/// the cluster is in CRV contention mode: probes demanding the hot
/// dimension have absolute priority over those that do not; within each
/// priority class the order is SRPT. Bound (long) probes never gain
/// priority. The starvation slack bounds every bypass. Returns the number
/// of probes bypassed.
pub fn crv_insert_tail(
    state: &mut SimState,
    worker: WorkerId,
    crv: &Crv,
    slack_threshold: u32,
) -> usize {
    let (hot_dim, hot_ratio) = crv.max_dimension();
    // Gate identically to `crv_reorder_queue`: with no contended dimension
    // the cluster is not in CRV mode, so the tail keeps plain FIFO order.
    // Without this gate the rank below degenerates to pure SRPT and kept
    // bypassing on estimates even when contention gating said "off".
    if hot_ratio <= 0.0 {
        return 0;
    }
    let Some(tail) = state.worker(worker).queue_len().checked_sub(1) else {
        return 0;
    };
    let rank = |p: &Probe| {
        let hot = !p.is_bound() && demands_dimension(state, p, hot_dim);
        (!hot, p.estimate_us()) // hot probes rank lower (earlier)
    };
    // `suppressed`: the walk stopped at a probe the new one *outranks* but
    // whose bypass budget is exhausted — the same starvation suppression
    // `crv_reorder_queue` accounts for, counted even after a partial move.
    let (to, suppressed) = state
        .worker(worker)
        .tail_insertion_target(slack_threshold, rank);
    let (moved, _) = state.promote_probe(worker, tail, to, slack_threshold);
    let at_us = state.now.as_micros();
    if moved > 0 {
        state.metrics.counters.crv_insertions += 1;
        state.tracer_mut().emit(|| TraceRecord::Insertion {
            at_us,
            worker: worker.0,
            bypassed: moved as u32,
        });
    }
    if suppressed {
        state.metrics.counters.starvation_suppressions += 1;
        state.tracer_mut().emit(|| TraceRecord::Suppression {
            at_us,
            worker: worker.0,
        });
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_constraints::{
        Constraint, ConstraintKind, ConstraintOp, ConstraintSet, FeasibilityIndex,
        MachinePopulation, PopulationProfile,
    };
    use phoenix_sim::{ProbeId, SimConfig, SimTime, Simulation};
    use phoenix_traces::{Job, JobId, Trace};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Jobs 0.. get the given constraint sets; probes for all of them are
    /// queued in order on worker 0.
    fn state_with_queue(sets: Vec<ConstraintSet>) -> phoenix_sim::SimState {
        state_with_probes(sets, |_, _| {})
    }

    /// [`state_with_queue`], with `preset(i, probe)` editing probe `i`
    /// before it is queued.
    fn state_with_probes(
        sets: Vec<ConstraintSet>,
        preset: impl Fn(usize, &mut Probe),
    ) -> phoenix_sim::SimState {
        let mut rng = StdRng::seed_from_u64(1);
        let cluster = MachinePopulation::generate(PopulationProfile::google_like(), 4, &mut rng);
        let jobs: Vec<Job> = sets
            .into_iter()
            .enumerate()
            .map(|(i, set)| Job {
                id: JobId(i as u32),
                arrival_s: 0.0,
                task_durations_s: vec![1.0],
                estimated_task_duration_s: 1.0,
                constraints: set,
                short: true,
                user: 0,
            })
            .collect();
        let n = jobs.len();
        let mut state = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(cluster.into_machines()),
            &Trace::new("t", jobs),
            Box::new(phoenix_sim::RandomScheduler::new(1)),
            1,
        )
        .into_state_for_tests();
        for i in 0..n {
            let mut probe = Probe {
                id: ProbeId(i as u64),
                job: JobId(i as u32),
                bound_duration_us: None,
                est_duration_us: 1_000_000,
                slowdown: 1.0,
                enqueued_at: SimTime::ZERO,
                bypass_count: 0,
                migrations: 0,
                retries: 0,
            };
            preset(i, &mut probe);
            state.enqueue_probe(WorkerId(0), probe);
        }
        state
    }

    /// Exhausts the head probe's slack of 5.
    fn pin_head(i: usize, probe: &mut Probe) {
        if i == 0 {
            probe.bypass_count = 5;
        }
    }

    fn net_set() -> ConstraintSet {
        ConstraintSet::from_constraints(vec![Constraint::soft(
            ConstraintKind::EthernetSpeed,
            ConstraintOp::Gt,
            900,
        )])
    }

    fn cpu_set() -> ConstraintSet {
        ConstraintSet::from_constraints(vec![Constraint::hard(
            ConstraintKind::NumCores,
            ConstraintOp::Gt,
            4,
        )])
    }

    fn hot_net() -> Crv {
        let mut crv = Crv::zero();
        crv[CrvDimension::Net] = 5.0;
        crv[CrvDimension::Cpu] = 0.5;
        crv
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
    fn hot_probes_move_to_front_stably() {
        let mut state = state_with_queue(vec![
            cpu_set(),
            net_set(),
            ConstraintSet::unconstrained(),
            net_set(),
        ]);
        let promoted = crv_reorder_queue(&mut state, WorkerId(0), &hot_net(), 5);
        assert_eq!(promoted, 2);
        assert_eq!(order(&state), vec![1, 3, 0, 2], "net probes first, stable");
        assert_eq!(state.metrics.counters.crv_reordered_tasks, 2);
    }

    #[test]
    fn already_ordered_queue_is_untouched() {
        let mut state = state_with_queue(vec![net_set(), net_set(), cpu_set()]);
        let promoted = crv_reorder_queue(&mut state, WorkerId(0), &hot_net(), 5);
        assert_eq!(promoted, 0);
        assert_eq!(order(&state), vec![0, 1, 2]);
    }

    #[test]
    fn zero_crv_is_noop() {
        let mut state = state_with_queue(vec![cpu_set(), net_set()]);
        let promoted = crv_reorder_queue(&mut state, WorkerId(0), &Crv::zero(), 5);
        assert_eq!(promoted, 0);
        assert_eq!(order(&state), vec![0, 1]);
    }

    #[test]
    fn pinned_probes_are_never_bypassed() {
        // The cold head probe's slack is exhausted.
        let mut state = state_with_probes(vec![cpu_set(), net_set()], pin_head);
        let promoted = crv_reorder_queue(&mut state, WorkerId(0), &hot_net(), 5);
        assert_eq!(promoted, 0, "pinned barrier blocks promotion");
        assert_eq!(order(&state), vec![0, 1]);
        assert_eq!(state.metrics.counters.starvation_suppressions, 1);
    }

    #[test]
    fn promotion_lands_after_pinned_barrier() {
        let mut state = state_with_probes(
            vec![
                cpu_set(),                      // pinned barrier
                ConstraintSet::unconstrained(), // bypassable
                net_set(),                      // hot
            ],
            pin_head,
        );
        let promoted = crv_reorder_queue(&mut state, WorkerId(0), &hot_net(), 5);
        assert_eq!(promoted, 1);
        assert_eq!(order(&state), vec![0, 2, 1], "hot lands after barrier");
        // The bypassed unconstrained probe gained a bypass count.
        assert_eq!(state.worker(WorkerId(0)).queue()[2].bypass_count, 1);
    }

    #[test]
    fn insert_tail_counts_suppression_like_reorder() {
        // A slack-exhausted cold probe blocks the new hot tail probe:
        // crv_insert_tail must account the starvation suppression exactly
        // as crv_reorder_queue does.
        let mut state = state_with_probes(vec![cpu_set(), net_set()], pin_head);
        let moved = crv_insert_tail(&mut state, WorkerId(0), &hot_net(), 5);
        assert_eq!(moved, 0);
        assert_eq!(order(&state), vec![0, 1]);
        assert_eq!(state.metrics.counters.starvation_suppressions, 1);
        assert_eq!(state.metrics.counters.crv_insertions, 0);
    }

    #[test]
    fn insert_tail_partial_move_still_counts_suppression() {
        // The hot tail bypasses one cold probe, then hits a pinned barrier:
        // both the insertion and the suppression are recorded.
        let mut state = state_with_probes(
            vec![
                cpu_set(),                      // pinned barrier
                ConstraintSet::unconstrained(), // bypassable
                net_set(),                      // hot tail
            ],
            pin_head,
        );
        let moved = crv_insert_tail(&mut state, WorkerId(0), &hot_net(), 5);
        assert_eq!(moved, 1);
        assert_eq!(order(&state), vec![0, 2, 1]);
        assert_eq!(state.metrics.counters.crv_insertions, 1);
        assert_eq!(state.metrics.counters.starvation_suppressions, 1);
    }

    #[test]
    fn insert_tail_stopping_on_rank_is_not_suppression() {
        // The walk stopping because the previous probe ranks equal/lower is
        // orderly SRPT behaviour, not starvation suppression.
        let mut state = state_with_queue(vec![net_set(), net_set()]);
        let moved = crv_insert_tail(&mut state, WorkerId(0), &hot_net(), 5);
        assert_eq!(moved, 0);
        assert_eq!(state.metrics.counters.starvation_suppressions, 0);
    }

    #[test]
    fn insert_tail_gates_off_without_contention() {
        // With no contended dimension both reorder entry points must be
        // no-ops. Before the gate, crv_insert_tail degenerated to pure
        // SRPT here and would bypass the slower head probes.
        // Give the tail a far shorter estimate than the queued probes so
        // an SRPT walk would promote it to the front.
        let mut state = state_with_probes(
            vec![
                ConstraintSet::unconstrained(),
                ConstraintSet::unconstrained(),
                net_set(),
            ],
            |i, probe| {
                if i == 2 {
                    probe.est_duration_us = 1;
                }
            },
        );
        let moved = crv_insert_tail(&mut state, WorkerId(0), &Crv::zero(), 5);
        assert_eq!(moved, 0, "no bypasses while contention gating is off");
        assert_eq!(order(&state), vec![0, 1, 2], "tail keeps FIFO position");
        assert_eq!(
            crv_reorder_queue(&mut state, WorkerId(0), &Crv::zero(), 5),
            0,
            "both entry points gate on the same condition"
        );
    }

    #[test]
    fn reordering_preserves_probe_multiset() {
        let mut state = state_with_queue(vec![
            net_set(),
            cpu_set(),
            net_set(),
            ConstraintSet::unconstrained(),
            cpu_set(),
        ]);
        let w = WorkerId(0);
        let before: Vec<u64> = state.worker(w).queue().iter().map(|p| p.id.0).collect();
        crv_reorder_queue(&mut state, w, &hot_net(), 5);
        let mut after: Vec<u64> = state.worker(w).queue().iter().map(|p| p.id.0).collect();
        after.sort_unstable();
        let mut sorted_before = before;
        sorted_before.sort_unstable();
        assert_eq!(after, sorted_before, "no probe lost or duplicated");
    }
}
