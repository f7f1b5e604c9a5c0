//! Property test: SRPT insertion keeps queues ordered modulo slack-pinned
//! probes for arbitrary insert sequences.

use proptest::prelude::*;

use phoenix_constraints::{FeasibilityIndex, MachinePopulation, PopulationProfile};
use phoenix_schedulers::srpt::{is_srpt_ordered_modulo_slack, srpt_insert_tail};
use phoenix_sim::{Probe, ProbeId, SimConfig, SimTime, Simulation, WorkerId};
use phoenix_traces::{Job, JobId, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn state_with_estimates(ests: &[f64]) -> phoenix_sim::SimState {
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
    Simulation::new(
        SimConfig::default(),
        FeasibilityIndex::new(cluster.into_machines()),
        &Trace::new("t", jobs),
        Box::new(phoenix_sim::RandomScheduler::new(1)),
        1,
    )
    .into_state_for_tests()
}

proptest! {
    #[test]
    fn srpt_insert_maintains_order_modulo_slack(
        ests in prop::collection::vec(0.1f64..1_000.0, 1..40),
        slack in 1u32..8,
    ) {
        let mut state = state_with_estimates(&ests);
        let w = WorkerId(0);
        for (i, _) in ests.iter().enumerate() {
            state.workers[0].enqueue(Probe {
                id: ProbeId(i as u64),
                job: JobId(i as u32),
                bound_duration_us: None,
                est_duration_us: state.jobs.estimated_task_us(JobId(i as u32)),
                slowdown: 1.0,
                enqueued_at: SimTime::ZERO,
                bypass_count: 0,
                migrations: 0,
                retries: 0,
            });
            srpt_insert_tail(&mut state, w, slack);
            prop_assert!(
                is_srpt_ordered_modulo_slack(&state, &state.workers[0], slack),
                "queue must stay SRPT-ordered modulo pinned probes"
            );
        }
        // Conservation: every inserted probe is still present exactly once.
        let mut ids: Vec<u64> = state.workers[0].queue().iter().map(|p| p.id.0).collect();
        ids.sort_unstable();
        let expected: Vec<u64> = (0..ests.len() as u64).collect();
        prop_assert_eq!(ids, expected);
    }
}
