//! Property tests on Phoenix's CRV reordering: conservation, slack safety
//! and hot-first ordering for arbitrary queue contents.

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

/// 0 = unconstrained, 1 = net-constrained (hot), 2 = cpu-constrained.
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

proptest! {
    #[test]
    fn crv_reorder_is_safe_for_arbitrary_queues(
        tags in prop::collection::vec(0u8..3, 0..40),
        bypasses in prop::collection::vec(0u32..8, 0..40),
        slack in 1u32..8,
    ) {
        let mut rng = StdRng::seed_from_u64(1);
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
        for (i, &tag) in tags.iter().enumerate() {
            let _ = tag;
            state.enqueue_probe(w, Probe {
                id: ProbeId(i as u64),
                job: JobId(i as u32),
                bound_duration_us: None,
                est_duration_us: state.jobs.estimated_task_us(JobId(i as u32)),
                slowdown: 1.0,
                enqueued_at: SimTime::ZERO,
                bypass_count: *bypasses.get(i).unwrap_or(&0),
                migrations: 0,
                retries: 0,
            });
        }
        let pinned_before: Vec<u64> = state.worker(w)
            .queue()
            .iter()
            .filter(|p| p.bypass_count >= slack)
            .map(|p| p.id.0)
            .collect();
        let positions_before: Vec<usize> = pinned_before
            .iter()
            .map(|id| {
                state.worker(w)
                    .queue()
                    .iter()
                    .position(|p| p.id.0 == *id)
                    .expect("present")
            })
            .collect();

        let mut crv = Crv::zero();
        crv[CrvDimension::Net] = 3.0;
        crv_reorder_queue(&mut state, w, &crv, slack);

        // Conservation.
        let mut ids: Vec<u64> = state.worker(w).queue().iter().map(|p| p.id.0).collect();
        ids.sort_unstable();
        let expected: Vec<u64> = (0..tags.len() as u64).collect();
        prop_assert_eq!(ids, expected);

        // Slack safety: pinned probes never move backward (nothing jumps
        // over them).
        for (id, before) in pinned_before.iter().zip(&positions_before) {
            let after = state.worker(w)
                .queue()
                .iter()
                .position(|p| p.id.0 == *id)
                .expect("still present");
            prop_assert!(after <= *before, "pinned probe {id} moved back");
        }
    }
}
