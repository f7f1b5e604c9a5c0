//! Adversarial and failure-injection tests: the engine must stay
//! well-formed under hostile scheduling policies.

use phoenix::prelude::*;
use phoenix::sim::{SimCtx, SimState, WorkerId};
use phoenix::traces::Job;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_trace(jobs: u32) -> Trace {
    let jobs = (0..jobs)
        .map(|i| Job {
            id: JobId(i),
            arrival_s: f64::from(i) * 0.5,
            task_durations_s: vec![1.0, 2.0],
            estimated_task_duration_s: 1.5,
            constraints: ConstraintSet::unconstrained(),
            short: true,
            user: 0,
        })
        .collect();
    Trace::new("tiny", jobs)
}

fn cluster(n: usize) -> FeasibilityIndex {
    let mut rng = StdRng::seed_from_u64(1);
    FeasibilityIndex::new(
        MachinePopulation::generate(PopulationProfile::google_like(), n, &mut rng).into_machines(),
    )
}

/// Dumps every probe on worker 0 — a pathological hot-spot policy.
#[derive(Debug)]
struct HotSpot;

impl Scheduler for HotSpot {
    fn name(&self) -> &str {
        "hot-spot"
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        for _ in 0..ctx.job(job).num_tasks() {
            let probe = ctx.new_probe(job);
            ctx.send_probe(WorkerId(0), probe);
        }
    }
}

#[test]
fn hot_spot_policy_still_completes_serially() {
    let trace = tiny_trace(50);
    let result = Simulation::new(
        SimConfig::default(),
        cluster(10),
        &trace,
        Box::new(HotSpot),
        1,
    )
    .run();
    assert_eq!(result.incomplete_jobs, 0);
    assert_eq!(result.counters.jobs_completed, 50);
    // Everything ran on one slot: makespan at least the serial work.
    assert!(result.metrics.makespan.as_secs_f64() >= 150.0 - 1e-6);
}

/// Ignores every job — nothing must complete, everything must be counted.
#[derive(Debug)]
struct DropAll;

impl Scheduler for DropAll {
    fn name(&self) -> &str {
        "drop-all"
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        ctx.fail_job(job);
    }
}

#[test]
fn failing_every_job_is_accounted_not_hung() {
    let trace = tiny_trace(20);
    let result = Simulation::new(
        SimConfig::default(),
        cluster(4),
        &trace,
        Box::new(DropAll),
        1,
    )
    .run();
    assert_eq!(result.counters.jobs_failed, 20);
    assert_eq!(result.counters.jobs_completed, 0);
    assert_eq!(
        result.incomplete_jobs, 0,
        "failed jobs are not 'incomplete'"
    );
    assert_eq!(result.counters.tasks_completed, 0);
}

/// Leaves probes unserved by refusing to select them.
#[derive(Debug)]
struct NeverServe;

impl Scheduler for NeverServe {
    fn name(&self) -> &str {
        "never-serve"
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        let probe = ctx.new_probe(job);
        ctx.send_probe(WorkerId(0), probe);
    }

    fn select_probe(&mut self, _worker: WorkerId, _state: &SimState) -> Option<usize> {
        None
    }
}

#[test]
fn refusing_to_serve_terminates_with_incomplete_jobs() {
    let trace = tiny_trace(5);
    let result = Simulation::new(
        SimConfig::default(),
        cluster(2),
        &trace,
        Box::new(NeverServe),
        1,
    )
    .run();
    // The run terminates (no livelock) and reports the stuck jobs.
    assert_eq!(result.incomplete_jobs, 5);
    assert_eq!(result.counters.tasks_completed, 0);
}

/// Steals everything it can on every task finish, constantly reshuffling.
#[derive(Debug)]
struct StealHappy;

impl Scheduler for StealHappy {
    fn name(&self) -> &str {
        "steal-happy"
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        let tasks = ctx.job(job).num_tasks();
        let n = ctx.num_workers() as u32;
        for i in 0..tasks {
            let probe = ctx.new_probe(job);
            ctx.send_probe(WorkerId(i as u32 % n), probe);
        }
    }

    fn on_task_finish(
        &mut self,
        worker: WorkerId,
        _job: JobId,
        _duration_us: u64,
        ctx: &mut SimCtx<'_>,
    ) {
        // Move every queued probe from the next worker over to this one.
        let victim = WorkerId((worker.0 + 1) % ctx.num_workers() as u32);
        let stolen = ctx.state_mut().steal_probes_if(victim, |p| !p.is_bound());
        for probe in stolen {
            ctx.counters_mut().stolen_probes += 1;
            ctx.transfer_probe(worker, probe);
        }
        ctx.touch(victim);
    }
}

#[test]
fn constant_stealing_preserves_conservation() {
    let trace = tiny_trace(60);
    let result = Simulation::new(
        SimConfig::default(),
        cluster(6),
        &trace,
        Box::new(StealHappy),
        1,
    )
    .run();
    assert_eq!(result.incomplete_jobs, 0);
    let c = result.counters;
    assert_eq!(c.probes_sent, c.tasks_completed + c.redundant_probes);
    assert!(c.stolen_probes > 0, "the shuffle must actually happen");
}
