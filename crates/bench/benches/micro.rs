//! Microbenchmarks of the substrate hot paths: event engine throughput,
//! feasibility sampling, constraint matching, CRV monitor refresh, and the
//! P-K estimator.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use phoenix_bench::{run_spec, RunSpec, SchedulerKind};
use phoenix_constraints::{
    Constraint, ConstraintExpr, ConstraintKind, ConstraintModel, ConstraintOp, ConstraintSet,
    FeasibilityIndex, MachinePopulation, PopulationProfile, VectorDemand,
};
use phoenix_core::{CrvMonitor, WaitEstimator};
use phoenix_sim::{Probe, ProbeId, SimDuration, SimTime, WorkerId};
use phoenix_traces::TraceProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_engine_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    let mut spec = RunSpec::new(TraceProfile::yahoo(), SchedulerKind::SparrowC);
    spec.nodes = 100;
    spec.gen_nodes = 100;
    spec.jobs = 1_000;
    spec.gen_util = 0.7;
    spec.record_task_waits = false;
    // Pre-measure the task count so throughput is per task.
    let tasks = run_spec(&spec).counters.tasks_completed;
    group.throughput(Throughput::Elements(tasks));
    group.sample_size(10);
    group.bench_function("sparrow_1k_jobs_100_nodes", |b| {
        b.iter(|| black_box(run_spec(black_box(&spec)).counters.tasks_completed));
    });
    group.finish();
}

fn bench_feasibility(c: &mut Criterion) {
    let mut group = c.benchmark_group("feasibility");
    let mut rng = StdRng::seed_from_u64(1);
    let population =
        MachinePopulation::generate(PopulationProfile::google_like(), 15_000, &mut rng);
    let machines = population.into_machines();
    let index = FeasibilityIndex::new(machines.clone());
    let model = ConstraintModel::google();
    let sets: Vec<_> = (0..64).map(|_| model.synthesize_set(&mut rng)).collect();
    // Warm the cache as a scheduler would.
    for set in &sets {
        let _ = index.feasible(set);
    }
    // The most selective warmed set: sampling has to fall through the
    // rejection phase into the exact phase almost every time.
    let selective = sets
        .iter()
        .min_by_key(|s| index.count_feasible(s))
        .expect("non-empty set pool")
        .clone();
    group.bench_function("sample_feasible_2_of_15k", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % sets.len();
            black_box(index.sample_feasible(&sets[i], 2, &mut rng, |_| false))
        });
    });
    group.bench_function("sample_feasible_selective_15k", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| black_box(index.sample_feasible(&selective, 4, &mut rng, |w| w % 2 == 0)));
    });
    // Cold-set cost, naive scan vs the posting-list index. Both benches
    // consume the same seeded stream of freshly synthesized sets, so the
    // ratio between them is the structural speedup (acceptance bar: ≥5×).
    group.bench_function("cold_set_naive_scan_15k", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| {
            let fresh = model.synthesize_set(&mut rng);
            black_box(machines.iter().filter(|m| fresh.satisfied_by(m)).count())
        });
    });
    group.bench_function("cold_set_index_15k", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| {
            let fresh = model.synthesize_set(&mut rng);
            // Uncached: every iteration pays the full bitset intersection,
            // never a memo hit (synthesized sets repeat eventually).
            black_box(index.count_feasible_uncached(&fresh))
        });
    });
    group.bench_function("cached_hit_15k", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % sets.len();
            black_box(index.feasible(&sets[i]).len())
        });
    });
    group.finish();
}

fn bench_feasibility_expr(c: &mut Criterion) {
    let mut group = c.benchmark_group("feasibility_expr");
    let mut rng = StdRng::seed_from_u64(1);
    let population =
        MachinePopulation::generate(PopulationProfile::google_like(), 15_000, &mut rng);
    let index = FeasibilityIndex::new(population.into_machines());
    // The depth-3 shape the yahoo-expr3 workload family draws:
    // All(Any(leaf, leaf), Not(leaf), vector) — an OR plan, an AND-NOT
    // plan and a multi-dimension vector fold under one intersection.
    let depth3 = ConstraintSet::from_expr(ConstraintExpr::all_of(vec![
        ConstraintExpr::any_of(vec![
            ConstraintExpr::leaf(Constraint::hard(
                ConstraintKind::Architecture,
                ConstraintOp::Eq,
                0,
            )),
            ConstraintExpr::leaf(Constraint::hard(
                ConstraintKind::PlatformFamily,
                ConstraintOp::Eq,
                1,
            )),
        ]),
        ConstraintExpr::not(ConstraintExpr::leaf(Constraint::hard(
            ConstraintKind::Architecture,
            ConstraintOp::Eq,
            2,
        ))),
        ConstraintExpr::vector(VectorDemand {
            cores: 8,
            memory_gb: 16,
            ..VectorDemand::default()
        }),
    ]));
    // The flat conjunction with the same leaf count: the acceptance bar
    // is cold expression cost within 10x of this (EXPERIMENTS.md).
    let flat = ConstraintSet::from_constraints(vec![
        Constraint::hard(ConstraintKind::Architecture, ConstraintOp::Eq, 0),
        Constraint::hard(ConstraintKind::PlatformFamily, ConstraintOp::Eq, 1),
        Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Gt, 7),
        Constraint::hard(ConstraintKind::Memory, ConstraintOp::Gt, 15),
    ]);
    group.bench_function("cold_depth3_expr_15k", |b| {
        b.iter(|| black_box(index.count_feasible_uncached(black_box(&depth3))));
    });
    group.bench_function("cold_flat_and_15k", |b| {
        b.iter(|| black_box(index.count_feasible_uncached(black_box(&flat))));
    });
    group.finish();
}

fn bench_crv_monitor(c: &mut Criterion) {
    let mut group = c.benchmark_group("crv_monitor");
    group.sample_size(20);
    // A mid-run state with populated queues: run a hot simulation and keep
    // its final state shape by rebuilding queues via a fresh sim.
    let mut spec = RunSpec::new(TraceProfile::google(), SchedulerKind::Phoenix);
    spec.nodes = 1_000;
    spec.gen_nodes = 1_000;
    spec.jobs = 3_000;
    spec.gen_util = 0.92;
    spec.record_task_waits = false;
    group.bench_function("refresh_1k_workers_via_run", |b| {
        b.iter(|| {
            // End-to-end: the run itself performs a monitor refresh every
            // 9 simulated seconds.
            black_box(run_spec(black_box(&spec)).counters.crv_reordered_tasks)
        });
    });
    group.finish();
}

/// Heartbeat cost at 5,000 workers with populated queues: the historical
/// full-cluster rescan vs the ledger refresh, which reads its demand
/// counters and computes supply from the idle bitset.
fn bench_monitor_refresh(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor_refresh");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(5);
    let cluster = MachinePopulation::generate(PopulationProfile::google_like(), 5_000, &mut rng);
    let trace =
        phoenix_traces::TraceGenerator::new(TraceProfile::google(), 1).generate(500, 5_000, 0.9);
    let mut state = phoenix_sim::Simulation::new(
        phoenix_sim::SimConfig::default(),
        FeasibilityIndex::new(cluster.into_machines()),
        &trace,
        Box::new(phoenix_sim::RandomScheduler::new(2)),
        1,
    )
    .into_state_for_tests();
    // Non-trivial queue depth: four queued probes per worker, spread over
    // the generated (constrained) jobs, via the ledger-aware API.
    let n_jobs = state.jobs.len() as u64;
    for i in 0..20_000u64 {
        let probe = Probe {
            id: ProbeId(i),
            job: phoenix_traces::JobId((i % n_jobs) as u32),
            bound_duration_us: None,
            est_duration_us: state.jobs[(i % n_jobs) as usize].estimated_task_us,
            slowdown: 1.0,
            enqueued_at: SimTime::ZERO,
            bypass_count: 0,
            migrations: 0,
            retries: 0,
        };
        state.enqueue_probe(WorkerId((i % 5_000) as u32), probe);
    }
    let mut monitor = CrvMonitor::new();
    group.bench_function("full_rescan_5k_workers_20k_probes", |b| {
        b.iter(|| {
            monitor.refresh_full_rescan(black_box(&state));
            black_box(monitor.max_ratio())
        });
    });
    group.bench_function("ledger_5k_workers_20k_probes", |b| {
        b.iter(|| {
            monitor.refresh(black_box(&state));
            black_box(monitor.max_ratio())
        });
    });
    group.finish();
}

fn bench_estimator(c: &mut Criterion) {
    let mut group = c.benchmark_group("pk_estimator");
    group.bench_function("record_and_estimate", |b| {
        let mut est = WaitEstimator::new(1_000);
        let mut t = SimTime::ZERO;
        let mut i = 0u32;
        b.iter(|| {
            let w = WorkerId(i % 1_000);
            est.record_arrival(w, t);
            est.record_service(w, SimDuration::from_millis(500));
            t += SimDuration::from_millis(1);
            i = i.wrapping_add(1);
            black_box(est.expected_wait(w))
        });
    });
    group.finish();
}

criterion_group!(
    micro,
    bench_engine_throughput,
    bench_feasibility,
    bench_feasibility_expr,
    bench_crv_monitor,
    bench_monitor_refresh,
    bench_estimator,
);
criterion_main!(micro);
