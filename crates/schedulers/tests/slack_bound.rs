//! Property test: the starvation-slack bound the invariant auditor checks
//! globally (`bypass_count <= slack` for every queued probe, always),
//! pinned at the unit level for the SRPT insertion path. Every promotion
//! path guards `bypass_count < slack` before bumping, so no insert
//! sequence may ever push a probe past the bound.

use proptest::prelude::*;

use phoenix_constraints::{FeasibilityIndex, MachinePopulation, PopulationProfile};
use phoenix_schedulers::srpt::srpt_insert_tail;
use phoenix_sim::{Probe, ProbeId, SimConfig, SimTime, Simulation, WorkerId};
use phoenix_traces::{Job, JobId, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #[test]
    fn srpt_insertion_respects_the_starvation_slack_bound(
        ests in prop::collection::vec(0.1f64..1_000.0, 1..40),
        preloaded_bypasses in prop::collection::vec(0u32..6, 1..40),
        slack in 1u32..6,
    ) {
        let mut rng = StdRng::seed_from_u64(7);
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
        let mut state = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(cluster.into_machines()),
            &Trace::new("t", jobs),
            Box::new(phoenix_sim::RandomScheduler::new(1)),
            1,
        )
        .into_state_for_tests();

        let w = WorkerId(0);
        for (i, _) in ests.iter().enumerate() {
            // Arrivals may find probes already part-way to starvation
            // (clamped inside the bound, as every engine path keeps them).
            let bypass_count = preloaded_bypasses
                .get(i)
                .copied()
                .unwrap_or(0)
                .min(slack);
            state.workers[0].enqueue(Probe {
                id: ProbeId(i as u64),
                job: JobId(i as u32),
                bound_duration_us: None,
                est_duration_us: state.jobs.estimated_task_us(JobId(i as u32)),
                slowdown: 1.0,
                enqueued_at: SimTime::ZERO,
                bypass_count,
                migrations: 0,
                retries: 0,
            });
            srpt_insert_tail(&mut state, w, slack);
            for p in state.workers[0].queue() {
                prop_assert!(
                    p.bypass_count <= slack,
                    "probe {} bypassed {} times, above the slack bound {}",
                    p.id,
                    p.bypass_count,
                    slack
                );
            }
        }
    }
}
