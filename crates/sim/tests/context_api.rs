//! Tests of the scheduler-facing SimCtx API through a fixture scheduler.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use phoenix_constraints::{
    AttributeVector, Constraint, ConstraintKind, ConstraintOp, ConstraintSet, FeasibilityIndex,
};
use phoenix_sim::{
    FederationConfig, ProbeId, Scheduler, SimConfig, SimCtx, SimDuration, Simulation, WorkerId,
};
use phoenix_traces::{Job, JobId, Trace};

fn trace(n: u32) -> Trace {
    Trace::new(
        "t",
        (0..n)
            .map(|i| Job {
                id: JobId(i),
                arrival_s: f64::from(i),
                task_durations_s: vec![1.0],
                estimated_task_duration_s: 1.0,
                constraints: ConstraintSet::unconstrained(),
                short: true,
                user: 0,
            })
            .collect(),
    )
}

fn cluster(n: usize) -> FeasibilityIndex {
    FeasibilityIndex::new(vec![AttributeVector::default(); n])
}

/// Exercises probe recall, local requeue, wakeups and counters.
#[derive(Debug, Default)]
struct ApiFixture {
    recalled: u32,
    wakeups: u32,
}

impl Scheduler for ApiFixture {
    fn name(&self) -> &str {
        "api-fixture"
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        assert_eq!(ctx.num_workers(), 4);
        assert!(ctx.config().rtt() > SimDuration::ZERO);
        // Send the probe to worker 0, then schedule a wakeup that recalls
        // it and re-sends it to worker 1 (exercising remove_probe_by_id +
        // transfer_probe).
        let probe = ctx.new_probe(job);
        let probe_id = probe.id;
        ctx.send_probe(WorkerId(0), probe);
        // Encode the probe id in the token (ids are small here).
        ctx.schedule_wakeup(SimDuration::from_millis(1), probe_id.0);
    }

    fn select_probe(&mut self, worker: WorkerId, state: &phoenix_sim::SimState) -> Option<usize> {
        // Worker 0 never serves: probes must be recalled to worker 1.
        if worker == WorkerId(0) {
            None
        } else if state.worker(worker).queue_len() > 0 {
            Some(0)
        } else {
            None
        }
    }

    fn on_wakeup(&mut self, token: u64, ctx: &mut SimCtx<'_>) {
        self.wakeups += 1;
        if let Some(mut probe) = ctx.remove_probe_by_id(WorkerId(0), phoenix_sim::ProbeId(token)) {
            probe.migrations += 1;
            self.recalled += 1;
            ctx.transfer_probe(WorkerId(1), probe);
            ctx.touch(WorkerId(0));
        }
    }
}

#[test]
fn probes_can_be_recalled_and_transferred() {
    let result = Simulation::new(
        SimConfig::default(),
        cluster(4),
        &trace(10),
        Box::new(ApiFixture::default()),
        1,
    )
    .run();
    assert_eq!(result.counters.jobs_completed, 10);
    assert_eq!(result.incomplete_jobs, 0);
    // All tasks ran on worker 1 (worker 0 refuses to serve).
    assert_eq!(result.counters.tasks_completed, 10);
}

/// Sends each job one probe at arrival and a second one after the job
/// has finished.
#[derive(Debug)]
struct LateProbeFixture;

impl Scheduler for LateProbeFixture {
    fn name(&self) -> &str {
        "late-probe-fixture"
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        let probe = ctx.new_probe(job);
        ctx.send_probe(WorkerId(0), probe);
        // The job's one task takes 1 s; the late probe leaves after 2 s.
        ctx.schedule_wakeup(SimDuration::from_secs(2), u64::from(job.0));
    }

    fn on_wakeup(&mut self, token: u64, ctx: &mut SimCtx<'_>) {
        let job = JobId(token as u32);
        assert!(ctx.state().jobs.is_finished(job), "job {} in flight", job.0);
        assert!(!ctx.has_pending(job));
        let probe = ctx.new_probe(job);
        // Retrying a copy hits the same discard check.
        assert_eq!(ctx.retry_set(&probe.clone()), None);
        ctx.send_probe(WorkerId(1), probe);
    }
}

/// A speculative probe that outlives its job is still discarded as
/// redundant, at dispatch and at retry, although the job's state is gone.
#[test]
fn probe_arriving_after_its_job_completed_is_redundant() {
    let result = Simulation::new(
        SimConfig::default(),
        cluster(2),
        &trace(5),
        Box::new(LateProbeFixture),
        1,
    )
    .run();
    assert_eq!(result.counters.jobs_completed, 5);
    assert_eq!(result.counters.tasks_completed, 5);
    assert_eq!(result.counters.probes_sent, 10);
    // Per job: the late probe at dispatch on worker 1, and its copy at
    // the retry discard check.
    assert_eq!(result.counters.redundant_probes, 10);
    // A job's task ends just after the next job arrives: two states at
    // most, never five.
    assert_eq!(result.job_table.peak_live, 2);
}

/// Takes each job's only task onto a bound probe, then fails the job: the
/// retry discard check drops the probe, and with it the job's last task.
#[derive(Debug)]
struct AbandonFixture;

impl Scheduler for AbandonFixture {
    fn name(&self) -> &str {
        "abandon-fixture"
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        let duration = ctx.take_task(job);
        let probe = ctx.new_bound_probe(job, duration);
        ctx.fail_job(job);
        assert!(!ctx.job(job).is_finished(), "the bound probe holds a task");
        assert_eq!(ctx.retry_set(&probe), None);
        assert!(ctx.job(job).is_finished());
    }
}

/// A failed job's state is dropped once no task of it can run any more.
#[test]
fn failed_job_leaves_the_table_once_its_tasks_are_abandoned() {
    let trace = trace(3);
    let mut sim = Simulation::new(
        SimConfig::default(),
        cluster(2),
        &trace,
        Box::new(AbandonFixture),
        1,
    );
    sim.enable_audit();
    let result = sim.run();
    let audit = result.audit.as_ref().expect("audit enabled");
    assert!(audit.is_clean(), "{audit}");
    assert_eq!(result.counters.jobs_failed, 3);
    assert_eq!(result.incomplete_jobs, 0);
    assert_eq!(result.job_table.peak_live, 1);
    assert!(result.job_outcomes.iter().all(|o| o.failed));
}

fn cores_gt(value: u64) -> ConstraintSet {
    ConstraintSet::from_constraints(vec![Constraint::hard(
        ConstraintKind::NumCores,
        ConstraintOp::Gt,
        value,
    )])
}

/// Sends each job's one probe, then sets the job's effective set: to a
/// different set when `change` holds, else to the set it already has.
#[derive(Debug)]
struct SetAfterProbeFixture {
    change: bool,
}

impl Scheduler for SetAfterProbeFixture {
    fn name(&self) -> &str {
        "set-after-probe-fixture"
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        let probe = ctx.new_probe(job);
        ctx.send_probe(WorkerId(0), probe);
        let set = if self.change {
            ctx.intern(&cores_gt(0))
        } else {
            ctx.effective(job)
        };
        ctx.set_effective(job, set);
    }
}

/// The CRV ledger takes a probe's demand back out under its job's current
/// set, so relaxing a job that already created a probe is refused.
#[test]
#[should_panic(expected = "changed its effective set after creating a probe")]
fn relaxing_a_job_after_it_probed_panics() {
    Simulation::new(
        SimConfig::default(),
        cluster(2),
        &trace(1),
        Box::new(SetAfterProbeFixture { change: true }),
        1,
    )
    .run();
}

/// Setting a job's current set again changes nothing, so it stays allowed
/// after the job probed.
#[test]
fn resetting_the_same_set_after_probing_is_allowed() {
    let result = Simulation::new(
        SimConfig::default(),
        cluster(2),
        &trace(3),
        Box::new(SetAfterProbeFixture { change: false }),
        1,
    )
    .run();
    assert_eq!(result.counters.jobs_completed, 3);
}

/// Sends each constrained job one probe to worker 0, which runs it, and one
/// to worker 2, which never serves. Once the job has completed and its
/// state is gone, a wakeup recalls the second probe.
#[derive(Debug, Default)]
struct FinishedJobRecallFixture {
    recalled: Arc<AtomicU32>,
}

impl Scheduler for FinishedJobRecallFixture {
    fn name(&self) -> &str {
        "finished-job-recall-fixture"
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        let run = ctx.new_probe(job);
        ctx.send_probe(WorkerId(0), run);
        let stuck = ctx.new_probe(job);
        let token = stuck.id.0;
        ctx.send_probe(WorkerId(2), stuck);
        // The task takes 1 s; the recall comes after 2 s.
        ctx.schedule_wakeup(SimDuration::from_secs(2), token);
    }

    fn select_probe(&mut self, worker: WorkerId, state: &phoenix_sim::SimState) -> Option<usize> {
        (worker != WorkerId(2) && state.worker(worker).queue_len() > 0).then_some(0)
    }

    fn on_wakeup(&mut self, token: u64, ctx: &mut SimCtx<'_>) {
        let ledger = ctx.state().crv_ledger();
        assert_eq!(ledger.cluster().demand(ConstraintKind::NumCores), 1);
        assert_eq!(ledger.domain(1).demand(ConstraintKind::NumCores), 1);
        let probe = ctx
            .remove_probe_by_id(WorkerId(2), ProbeId(token))
            .expect("the stuck probe is queued");
        assert!(ctx.state().jobs.is_finished(probe.job), "job in flight");
        self.recalled.fetch_add(1, Ordering::Relaxed);
        let ledger = ctx.state().crv_ledger();
        for tally in [ledger.cluster(), ledger.domain(0), ledger.domain(1)] {
            assert_eq!(tally.queued_probes(), 0);
            assert_eq!(tally.constrained_probes(), 0);
            assert_eq!(tally.distinct_instances(), 0);
            for kind in ConstraintKind::ALL {
                assert_eq!(tally.demand(kind), 0, "{kind}");
            }
        }
    }
}

/// A queued probe of a completed job leaves the CRV ledger under the set
/// its job's record still names, so every tally returns to zero demand.
#[test]
fn removing_a_probe_of_a_finished_job_clears_its_demand() {
    let jobs = (0..3)
        .map(|i| Job {
            id: JobId(i),
            arrival_s: 10.0 * f64::from(i),
            task_durations_s: vec![1.0],
            estimated_task_duration_s: 1.0,
            constraints: cores_gt(4),
            short: true,
            user: 0,
        })
        .collect();
    let trace = Trace::new("finished-recall", jobs);
    let machine = AttributeVector {
        num_cores: 16,
        ..AttributeVector::default()
    };
    let config = SimConfig {
        federation: FederationConfig::sharded(2, SimDuration::from_millis(10)),
        ..SimConfig::default()
    };
    let fixture = FinishedJobRecallFixture::default();
    let recalled = Arc::clone(&fixture.recalled);
    let mut sim = Simulation::new(
        config,
        FeasibilityIndex::new(vec![machine; 4]),
        &trace,
        Box::new(fixture),
        1,
    );
    sim.enable_audit();
    let result = sim.run();
    let audit = result.audit.as_ref().expect("audit enabled");
    assert!(audit.is_clean(), "{audit}");
    assert_eq!(result.counters.jobs_completed, 3);
    assert_eq!(result.counters.probes_sent, 6);
    assert_eq!(recalled.load(Ordering::Relaxed), 3);
    assert_eq!(result.queues.peak_queued, 1);
}

/// A scheduler that relies on ctx.rng() determinism.
#[derive(Debug)]
struct RngFixture {
    draws: Vec<u64>,
}

impl Scheduler for RngFixture {
    fn name(&self) -> &str {
        "rng-fixture"
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        use rand::Rng;
        let n = ctx.num_workers();
        let pick = ctx.rng().random_range(0..n) as u64;
        self.draws.push(pick);
        let probe = ctx.new_probe(job);
        ctx.send_probe(WorkerId(pick as u32), probe);
    }
}

#[test]
fn ctx_rng_is_seed_deterministic() {
    // All jobs arrive together so random placement shapes the queue waits.
    let burst = Trace::new(
        "burst",
        (0..30)
            .map(|i| Job {
                id: JobId(i),
                arrival_s: 0.0,
                task_durations_s: vec![5.0],
                estimated_task_duration_s: 5.0,
                constraints: ConstraintSet::unconstrained(),
                short: true,
                user: 0,
            })
            .collect(),
    );
    let run = |seed| {
        let r = Simulation::new(
            SimConfig::default(),
            cluster(8),
            &burst,
            Box::new(RngFixture { draws: Vec::new() }),
            seed,
        )
        .run();
        let per_job: Vec<Option<f64>> = r.job_outcomes.iter().map(|o| o.response_s).collect();
        (r.counters, per_job)
    };
    assert_eq!(run(5), run(5), "same seed, same everything");
    let (_, jobs_a) = run(5);
    let (_, jobs_b) = run(6);
    // Different seeds place jobs on different workers, so *which* job eats
    // each queue position differs (the wait multiset may coincide).
    assert_ne!(jobs_a, jobs_b, "different seeds must place differently");
}
