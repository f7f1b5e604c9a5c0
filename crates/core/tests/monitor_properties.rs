//! Property test for the CRV ledger: after every randomized queue/slot
//! operation, the monitor table derived from the ledger must equal a
//! from-scratch full rescan, and on a partitioned run every domain tally
//! must equal a rescan restricted to that domain's worker range.

use phoenix_constraints::{
    Constraint, ConstraintExpr, ConstraintKind, ConstraintOp, ConstraintSet, FeasibilityIndex,
    MachinePopulation, PopulationProfile,
};
use phoenix_core::CrvMonitor;
use phoenix_sim::{
    CrvTally, FederationConfig, Probe, ProbeId, RunningTask, SimConfig, SimDuration, SimState,
    SimTime, Simulation, WorkerId,
};
use phoenix_traces::{Job, JobId, Trace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const WORKERS: usize = 16;

/// The partitioned input: 200 workers in 3 domains of 67, 67 and 66, so
/// every domain edge falls inside a bitset word and domains span words.
const FED_WORKERS: usize = 200;
const FED_DOMAINS: usize = 3;

fn job_sets() -> Vec<ConstraintSet> {
    vec![
        ConstraintSet::unconstrained(),
        ConstraintSet::from_constraints(vec![Constraint::hard(
            ConstraintKind::NumCores,
            ConstraintOp::Gt,
            4,
        )]),
        ConstraintSet::from_constraints(vec![Constraint::soft(
            ConstraintKind::EthernetSpeed,
            ConstraintOp::Gt,
            900,
        )]),
        ConstraintSet::from_constraints(vec![Constraint::hard(
            ConstraintKind::KernelVersion,
            ConstraintOp::Gt,
            300,
        )]),
        ConstraintSet::from_constraints(vec![
            Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Gt, 2),
            Constraint::soft(ConstraintKind::Memory, ConstraintOp::Gt, 8),
        ]),
        ConstraintSet::from_constraints(vec![Constraint::hard(
            ConstraintKind::NumCores,
            ConstraintOp::Gt,
            4,
        )]),
        // Constrained, but projects to no CRV instance.
        ConstraintSet::from_expr(ConstraintExpr::not(ConstraintExpr::leaf(Constraint::hard(
            ConstraintKind::NumCores,
            ConstraintOp::Gt,
            8,
        )))),
    ]
}

fn build_state(workers: usize, federation: FederationConfig) -> SimState {
    let mut rng = StdRng::seed_from_u64(11);
    let cluster = MachinePopulation::generate(PopulationProfile::google_like(), workers, &mut rng);
    let jobs: Vec<Job> = job_sets()
        .into_iter()
        .enumerate()
        .map(|(i, set)| Job {
            id: JobId(i as u32),
            arrival_s: 0.0,
            task_durations_s: vec![1.0; 4],
            estimated_task_duration_s: 1.0,
            constraints: set,
            short: true,
            user: 0,
        })
        .collect();
    Simulation::new(
        SimConfig {
            federation,
            ..SimConfig::default()
        },
        FeasibilityIndex::new(cluster.into_machines()),
        &Trace::new("t", jobs),
        Box::new(phoenix_sim::RandomScheduler::new(1)),
        1,
    )
    .into_state_for_tests()
}

/// One randomized op against the ledger-aware state API; interpreted
/// modulo the current state so every sequence is valid.
fn apply_op(
    state: &mut SimState,
    op: u8,
    a: u16,
    b: u16,
    next_probe: &mut u64,
    next_seq: &mut u64,
) {
    let worker = WorkerId((usize::from(a) % state.workers().len()) as u32);
    let n_jobs = state.jobs.arrived() as u64;
    let alive = state.worker(worker).is_alive();
    match op {
        // Enqueue at the tail. The engine never delivers probes to dead
        // workers (arrivals bounce into the retry path), so mirror that.
        0 | 1 => {
            if !alive {
                return;
            }
            let probe = Probe {
                id: ProbeId(*next_probe),
                job: JobId((u64::from(b) % n_jobs) as u32),
                bound_duration_us: if op == 1 { Some(1_000) } else { None },
                est_duration_us: state
                    .jobs
                    .estimated_task_us(JobId((u64::from(b) % n_jobs) as u32)),
                slowdown: 1.0,
                enqueued_at: SimTime::ZERO,
                bypass_count: 0,
                migrations: 0,
                retries: 0,
            };
            *next_probe += 1;
            state.enqueue_probe(worker, probe);
        }
        // Enqueue at the front (sticky batch probing).
        2 => {
            if !alive {
                return;
            }
            let probe = Probe {
                id: ProbeId(*next_probe),
                job: JobId((u64::from(b) % n_jobs) as u32),
                bound_duration_us: None,
                est_duration_us: state
                    .jobs
                    .estimated_task_us(JobId((u64::from(b) % n_jobs) as u32)),
                slowdown: 1.0,
                enqueued_at: SimTime::ZERO,
                bypass_count: 0,
                migrations: 0,
                retries: 0,
            };
            *next_probe += 1;
            state.enqueue_probe_front(worker, probe);
        }
        // Remove one queued probe (dispatch / recall).
        3 => {
            let len = state.worker(worker).queue_len();
            if len > 0 {
                let _ = state.remove_probe_at(worker, usize::from(b) % len);
            }
        }
        // Steal a matching subset.
        4 => {
            let residue = u64::from(b) % 3;
            let _ = state.steal_probes_if(worker, |p| p.id.0 % 3 == residue);
        }
        // Occupy a slot (idle → busy transition). Dead workers run nothing.
        5 => {
            if alive && state.worker(worker).has_free_slot() {
                let seq = *next_seq;
                *next_seq += 1;
                state.start_task_on(
                    worker,
                    RunningTask {
                        job: JobId((u64::from(b) % n_jobs) as u32),
                        finish_at: SimTime::from_secs_f64(100.0),
                        duration_us: 1_000,
                        raw_duration_us: 1_000,
                        slowdown: 1.0,
                        bound: false,
                        seq,
                    },
                    SimTime::ZERO,
                );
            }
        }
        // Free a slot (busy → idle transition).
        6 => {
            if let Some(task) = state.worker(worker).running_tasks().first().copied() {
                let _ = state.finish_task_on(worker, task.seq);
            }
        }
        // Pure reordering: must not need (or disturb) ledger accounting.
        7 => {
            let len = state.worker(worker).queue_len();
            if len > 1 {
                state.promote_probe(worker, usize::from(b) % len, 0, u32::MAX);
            }
        }
        // Crash: kills running tasks, drops queued probes, removes the
        // worker's idle supply.
        8 => {
            if alive {
                let _ = state.crash_worker(worker);
            }
        }
        // Recover: the worker's idle supply returns.
        _ => {
            if !alive {
                state.recover_worker(worker);
            }
        }
    }
}

/// A ledger tally's counters, recomputed naively from the queues, slots
/// and machine attributes of the workers in `[start, end)`.
#[derive(Debug, Default, PartialEq)]
struct RangeRescan {
    demand: [u64; ConstraintKind::COUNT],
    supply: [u64; ConstraintKind::COUNT],
    queued: usize,
    constrained: usize,
    idle: usize,
    instances: usize,
}

impl RangeRescan {
    fn of(state: &SimState, start: usize, end: usize) -> Self {
        let mut r = RangeRescan::default();
        let mut instances: Vec<Constraint> = Vec::new();
        for w in &state.workers()[start..end] {
            for p in w.queue() {
                r.queued += 1;
                let set = state.sets.get(state.jobs.effective(p.job));
                if set.is_unconstrained() {
                    continue;
                }
                r.constrained += 1;
                for c in set.iter() {
                    r.demand[c.kind.index()] += 1;
                    if !instances.contains(c) {
                        instances.push(*c);
                    }
                }
            }
        }
        r.instances = instances.len();
        let machines = state.feasibility.machines();
        for (i, w) in state.workers().iter().enumerate().take(end).skip(start) {
            if !w.is_idle() || !w.is_alive() {
                continue;
            }
            r.idle += 1;
            for kind in ConstraintKind::ALL {
                if instances
                    .iter()
                    .any(|c| c.kind == kind && c.satisfied_by(&machines[i]))
                {
                    r.supply[kind.index()] += 1;
                }
            }
        }
        r
    }

    fn from_tally(tally: CrvTally<'_>) -> Self {
        RangeRescan {
            demand: ConstraintKind::ALL.map(|k| tally.demand(k)),
            supply: ConstraintKind::ALL.map(|k| tally.idle_supply(k)),
            queued: tally.queued_probes(),
            constrained: tally.constrained_probes(),
            idle: tally.idle_workers(),
            instances: tally.distinct_instances(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ledger_matches_rescan_after_every_op(
        ops in prop::collection::vec((0u8..10, 0u16..1024, 0u16..64), 0..60),
    ) {
        let mut state = build_state(WORKERS, FederationConfig::off());
        let mut fed = build_state(
            FED_WORKERS,
            FederationConfig::sharded(FED_DOMAINS, SimDuration::ZERO),
        );
        let ranges = fed.federation().expect("partitioned").ranges().to_vec();
        prop_assert_eq!(ranges.len(), FED_DOMAINS);
        let (mut next_probe, mut next_seq) = (0u64, 0u64);
        let (mut fed_probe, mut fed_seq) = (0u64, 0u64);
        for &(op, a, b) in &ops {
            apply_op(&mut state, op, a, b, &mut next_probe, &mut next_seq);
            let mut ledger = CrvMonitor::new();
            ledger.refresh(&state);
            let mut rescan = CrvMonitor::new();
            rescan.refresh_full_rescan(&state);
            prop_assert_eq!(ledger.table(), rescan.table());
            prop_assert_eq!(ledger.crv(), rescan.crv());
            prop_assert_eq!(
                ledger.snapshot().queued_probes,
                rescan.snapshot().queued_probes
            );
            prop_assert_eq!(
                ledger.snapshot().constrained_probes,
                rescan.snapshot().constrained_probes
            );
            prop_assert_eq!(
                ledger.snapshot().idle_workers,
                rescan.snapshot().idle_workers
            );

            apply_op(&mut fed, op, a, b, &mut fed_probe, &mut fed_seq);
            let live = fed.crv_ledger();
            prop_assert_eq!(
                RangeRescan::from_tally(live.cluster()),
                RangeRescan::of(&fed, 0, FED_WORKERS)
            );
            for (d, &(base, len)) in ranges.iter().enumerate() {
                prop_assert_eq!(
                    RangeRescan::from_tally(live.domain(d)),
                    RangeRescan::of(&fed, base, base + len),
                    "domain {} [{}, {})",
                    d,
                    base,
                    base + len
                );
            }
        }
    }
}
