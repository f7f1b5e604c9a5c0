//! Equivalence oracle for the O(moved) incremental CRV reorder pass.
//!
//! `crv_reorder_queue` used to find each hot probe's landing slot by
//! re-scanning `[insert_pos, i)` for the last pinned barrier — an O(n²)
//! walk. The incremental version maintains the barrier frontier in a
//! single pass. This suite replays the historical quadratic walk on a
//! pure model of the queue and demands exact agreement on:
//!
//! * the final probe order,
//! * every probe's bypass counter (promotions increment the probes they
//!   overtake, which is how barriers appear mid-pass),
//! * the promoted count and the `crv_reordered_tasks` /
//!   `starvation_suppressions` metrics,
//!
//! across randomized mixes of hot, cold, bound and slack-exhausted
//! (pinned) probes.

use proptest::prelude::*;

use phoenix_constraints::{
    Constraint, ConstraintKind, ConstraintOp, ConstraintSet, Crv, CrvDimension, FeasibilityIndex,
    MachinePopulation, PopulationProfile,
};
use phoenix_core::crv_reorder_queue;
use phoenix_sim::{Probe, ProbeId, SimConfig, SimTime, Simulation, WorkerId};
use phoenix_traces::{Job, JobId, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// 0 = unconstrained, 1 = net-constrained (hot dimension), 2 = cpu.
fn set_for(tag: u8) -> ConstraintSet {
    match tag % 3 {
        1 => ConstraintSet::from_constraints(vec![Constraint::soft(
            ConstraintKind::EthernetSpeed,
            ConstraintOp::Gt,
            900,
        )]),
        2 => ConstraintSet::from_constraints(vec![Constraint::hard(
            ConstraintKind::NumCores,
            ConstraintOp::Gt,
            4,
        )]),
        _ => ConstraintSet::unconstrained(),
    }
}

/// Pure model of one queued probe: everything the reorder pass reads.
#[derive(Clone, Debug, PartialEq)]
struct ModelProbe {
    id: u64,
    hot: bool,
    bypass_count: u32,
}

/// The historical quadratic reference walk, verbatim semantics: per hot
/// probe, rescan `[insert_pos, i)` for the last pinned barrier, then
/// rotate the probe in front of everything it bypasses (incrementing
/// their counters, exactly like `Worker::promote`). Returns
/// `(promoted, suppressions)`.
fn reference_reorder(queue: &mut [ModelProbe], slack_threshold: u32) -> (usize, usize) {
    let len = queue.len();
    let mut promoted = 0usize;
    let mut suppressions = 0usize;
    let mut insert_pos = 0usize;
    for i in 0..len {
        if !queue[i].hot {
            continue;
        }
        if i == insert_pos {
            insert_pos += 1;
            continue;
        }
        let mut target = insert_pos;
        for (j, p) in queue.iter().enumerate().take(i).skip(insert_pos) {
            if p.bypass_count >= slack_threshold {
                target = j + 1;
            }
        }
        if target < i {
            for p in &mut queue[target..i] {
                p.bypass_count += 1;
            }
            queue[target..=i].rotate_right(1);
            promoted += 1;
            insert_pos = target + 1;
        } else {
            suppressions += 1;
            insert_pos = i + 1;
        }
    }
    (promoted, suppressions)
}

proptest! {
    #[test]
    fn incremental_reorder_matches_quadratic_reference(
        tags in prop::collection::vec(0u8..3, 0..48),
        bounds in prop::collection::vec(0u8..2, 0..48),
        bypasses in prop::collection::vec(0u32..8, 0..48),
        slack in 1u32..8,
    ) {
        let mut rng = StdRng::seed_from_u64(7);
        let cluster = MachinePopulation::generate(PopulationProfile::google_like(), 2, &mut rng);
        let jobs: Vec<Job> = tags
            .iter()
            .enumerate()
            .map(|(i, &tag)| Job {
                id: JobId(i as u32),
                arrival_s: 0.0,
                task_durations_s: vec![1.0],
                estimated_task_duration_s: 1.0,
                constraints: set_for(tag),
                short: true,
                user: 0,
            })
            .collect();
        let mut state = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(cluster.into_machines()),
            &Trace::new("t", jobs),
            Box::new(phoenix_sim::RandomScheduler::new(1)),
            1,
        )
        .into_state_for_tests();
        let w = WorkerId(0);
        for i in 0..tags.len() {
            let bound = bounds.get(i).copied().unwrap_or(0) == 1;
            state.enqueue_probe(w, Probe {
                id: ProbeId(i as u64),
                job: JobId(i as u32),
                bound_duration_us: bound.then_some(1_000_000),
                est_duration_us: state.jobs.estimated_task_us(JobId(i as u32)),
                slowdown: 1.0,
                enqueued_at: SimTime::ZERO,
                bypass_count: *bypasses.get(i).unwrap_or(&0),
                migrations: 0,
                retries: 0,
            });
        }

        let mut crv = Crv::zero();
        crv[CrvDimension::Net] = 3.0;
        let (hot_dim, _) = crv.max_dimension();

        // Snapshot the model *through the engine's own eyes*: hotness is
        // `!bound && effective constraints demand the hot dimension`, the
        // same predicate the pass applies, so the oracle cannot drift if
        // constraint relaxation changes what "hot" means.
        let mut model: Vec<ModelProbe> = state.worker(w)
            .queue()
            .iter()
            .map(|p| ModelProbe {
                id: p.id.0,
                hot: !p.is_bound()
                    && state
                        .sets
                        .get(state.jobs.effective(p.job))
                        .iter()
                        .any(|c| c.kind.crv_dimension() == hot_dim),
                bypass_count: p.bypass_count,
            })
            .collect();

        let (ref_promoted, ref_suppressed) = reference_reorder(&mut model, slack);
        let promoted = crv_reorder_queue(&mut state, w, &crv, slack);

        prop_assert_eq!(promoted, ref_promoted, "promoted counts diverge");
        prop_assert_eq!(
            state.metrics.counters.crv_reordered_tasks as usize,
            ref_promoted,
            "crv_reordered_tasks diverges"
        );
        prop_assert_eq!(
            state.metrics.counters.starvation_suppressions as usize,
            ref_suppressed,
            "starvation_suppressions diverges"
        );
        let got: Vec<(u64, u32)> = state.worker(w)
            .queue()
            .iter()
            .map(|p| (p.id.0, p.bypass_count))
            .collect();
        let want: Vec<(u64, u32)> = model.iter().map(|p| (p.id, p.bypass_count)).collect();
        prop_assert_eq!(got, want, "final (order, bypass counters) diverge");
    }
}
