//! The engine's debug conservation audit: a policy that desyncs the cached
//! `queued_bound_work_us` aggregate through `Worker::queue_mut` is caught
//! before the next dispatch.

use phoenix_constraints::{FeasibilityIndex, MachinePopulation, PopulationProfile};
use phoenix_sim::{Scheduler, SimConfig, SimCtx, SimDuration, SimResult, Simulation, WorkerId};
use phoenix_traces::{Job, JobId, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn one_short_job_trace() -> Trace {
    Trace::new(
        "t",
        vec![Job {
            id: JobId(0),
            arrival_s: 0.0,
            task_durations_s: vec![1.0],
            estimated_task_duration_s: 1.0,
            constraints: Default::default(),
            short: true,
            user: 0,
        }],
    )
}

fn simulate(scheduler: Box<dyn Scheduler>) -> SimResult {
    let mut rng = StdRng::seed_from_u64(3);
    let cluster = MachinePopulation::generate(PopulationProfile::google_like(), 4, &mut rng);
    Simulation::new(
        SimConfig::default(),
        FeasibilityIndex::new(cluster.into_machines()),
        &one_short_job_trace(),
        scheduler,
        3,
    )
    .run()
}

/// Sends one speculative probe, then rewrites its bound duration in place —
/// exactly the desync `Worker::queue_mut` makes possible.
#[cfg(debug_assertions)]
#[derive(Debug)]
struct DesyncingScheduler;

#[cfg(debug_assertions)]
impl Scheduler for DesyncingScheduler {
    fn name(&self) -> &str {
        "desyncing"
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        let probe = ctx.new_probe(job);
        ctx.send_probe(WorkerId(0), probe);
    }

    fn on_probe_enqueued(&mut self, worker: WorkerId, ctx: &mut SimCtx<'_>) {
        // Illegally turn the queued speculative probe into a "bound" one
        // without going through enqueue/remove: the cached aggregate no
        // longer matches the queue.
        if let Some(p) = ctx.worker_mut(worker).queue_mut().first_mut() {
            p.bound_duration_us = Some(123_456);
        }
    }
}

/// A policy that only *reorders* through `queue_mut` stays within the
/// contract and must not trip the audit.
#[derive(Debug)]
struct ReorderingScheduler;

impl Scheduler for ReorderingScheduler {
    fn name(&self) -> &str {
        "reordering"
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        let bound = ctx.take_task(job);
        let probe = ctx.new_bound_probe(job, bound);
        ctx.send_probe(WorkerId(0), probe);
        let probe = ctx.new_probe(job);
        ctx.send_probe(WorkerId(0), probe);
    }

    fn on_probe_enqueued(&mut self, worker: WorkerId, ctx: &mut SimCtx<'_>) {
        let w = ctx.worker_mut(worker);
        if w.queue_len() >= 2 {
            w.queue_mut().reverse();
            w.promote_to_front(w.queue_len() - 1);
        }
    }
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "queued_bound_work_us desynced")]
fn engine_audit_catches_bound_work_desync() {
    simulate(Box::new(DesyncingScheduler));
}

#[test]
fn reordering_through_queue_mut_passes_the_audit() {
    let result = simulate(Box::new(ReorderingScheduler));
    assert_eq!(result.incomplete_jobs, 0);
}

fn three_task_job_trace() -> Trace {
    Trace::new(
        "t",
        vec![Job {
            id: JobId(0),
            arrival_s: 0.0,
            task_durations_s: vec![1.0; 3],
            estimated_task_duration_s: 1.0,
            constraints: Default::default(),
            short: true,
            user: 0,
        }],
    )
}

/// Binds two probes to worker 0 and one to worker 1, then crashes worker 0
/// once both of its probes have arrived and re-binds the casualties onto
/// worker 1. The crash drains worker 0's queue through the ledger-aware
/// `steal_probes_if` path — if that path double-counted
/// `queued_bound_work_us`, the engine's debug audit (and the explicit
/// recomputation below) would catch the desync.
#[derive(Debug)]
struct CrashingScheduler {
    w0_enqueues: usize,
}

impl Scheduler for CrashingScheduler {
    fn name(&self) -> &str {
        "crashing"
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        for target in [WorkerId(0), WorkerId(0), WorkerId(1)] {
            let bound = ctx.take_task(job);
            let probe = ctx.new_bound_probe(job, bound);
            ctx.send_probe(target, probe);
        }
    }

    fn on_probe_enqueued(&mut self, worker: WorkerId, ctx: &mut SimCtx<'_>) {
        if worker != WorkerId(0) {
            return;
        }
        self.w0_enqueues += 1;
        if self.w0_enqueues < 2 {
            return;
        }
        // Both probes reached worker 0 (one may already be running).
        let (killed, dropped) = ctx.state_mut().crash_worker(WorkerId(0));
        assert_eq!(killed.len() + dropped.len(), 2, "both tasks are casualties");
        let w0 = ctx.worker(WorkerId(0));
        assert_eq!(w0.queue_len(), 0, "crash must drain the queue");
        assert_eq!(
            w0.queued_bound_work_us(),
            0,
            "drained queue must zero the bound-work aggregate, not double-drop it"
        );
        // Fail the casualties over to worker 1, re-bound.
        for task in killed {
            let probe = ctx.new_bound_probe(task.job, task.raw_duration_us);
            ctx.send_probe(WorkerId(1), probe);
        }
        for probe in dropped {
            ctx.send_probe(WorkerId(1), probe);
        }
        // Worker 1's aggregate must stay exact through all of the above.
        let w1 = ctx.worker(WorkerId(1));
        let recomputed: u64 = w1.queue().iter().filter_map(|p| p.bound_duration_us).sum();
        assert_eq!(w1.queued_bound_work_us(), recomputed);
    }
}

#[test]
fn crash_drain_keeps_bound_work_aggregate_exact() {
    let mut rng = StdRng::seed_from_u64(3);
    let cluster = MachinePopulation::generate(PopulationProfile::google_like(), 4, &mut rng);
    let result = Simulation::new(
        SimConfig::default(),
        FeasibilityIndex::new(cluster.into_machines()),
        &three_task_job_trace(),
        Box::new(CrashingScheduler { w0_enqueues: 0 }),
        3,
    )
    .run();
    assert_eq!(result.incomplete_jobs, 0, "failed-over tasks must complete");
    assert_eq!(result.lost_tasks, 0);
    assert_eq!(result.counters.tasks_completed, 3);
}

/// Crashes worker 0 while idle, recovers it, and reuses it for a bound
/// placement: the recovered worker's accounting must be indistinguishable
/// from a fresh one.
#[derive(Debug)]
struct RecycleScheduler;

impl Scheduler for RecycleScheduler {
    fn name(&self) -> &str {
        "recycle"
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        let (killed, dropped) = ctx.state_mut().crash_worker(WorkerId(0));
        assert!(killed.is_empty() && dropped.is_empty(), "worker was idle");
        ctx.state_mut().recover_worker(WorkerId(0));
        let bound = ctx.take_task(job);
        let probe = ctx.new_bound_probe(job, bound);
        ctx.send_probe(WorkerId(0), probe);
    }
}

/// Late-binds one task to worker 0, then crashes the worker *inside the
/// task-fetch RTT window*: the probe was dispatched (it holds a slot and
/// its full duration was credited to the busy-time metric), but the task
/// payload is still in flight and execution has not started. The crash
/// must refund exactly the never-executed portion — busy time can never
/// underflow — and the killed task must carry its raw duration so it can
/// be re-bound elsewhere and complete.
#[derive(Debug)]
struct CrashInRttScheduler {
    struck: bool,
}

impl Scheduler for CrashInRttScheduler {
    fn name(&self) -> &str {
        "crash-in-rtt"
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        // Unbound (late-binding) probe: dispatch will pay the fetch RTT.
        let probe = ctx.new_probe(job);
        ctx.send_probe(WorkerId(0), probe);
    }

    fn on_probe_enqueued(&mut self, worker: WorkerId, ctx: &mut SimCtx<'_>) {
        // Dispatch happens right after this hook returns; the fetched task
        // starts only one RTT later. Strike 100 µs into that window. (The
        // re-bound probe lands on worker 1 later — only strike once.)
        if worker == WorkerId(0) && !self.struck {
            self.struck = true;
            ctx.schedule_wakeup(SimDuration::from_micros(100), 0);
        }
    }

    fn on_wakeup(&mut self, _token: u64, ctx: &mut SimCtx<'_>) {
        let now = ctx.now();
        let rtt = ctx.state().config.rtt();
        let (killed, dropped) = ctx.state_mut().crash_worker(WorkerId(0));
        assert!(dropped.is_empty(), "the probe was already dispatched");
        assert_eq!(killed.len(), 1, "the fetching task is a casualty");
        let task = &killed[0];
        let start = SimDuration(task.finish_at.as_micros() - task.duration_us);
        assert!(
            start.as_micros() > now.as_micros(),
            "crash must land before execution starts (start {start:?}, now {now:?})"
        );
        assert!(
            start.as_micros() - now.as_micros() < rtt.as_micros(),
            "crash must land inside the RTT window"
        );
        // The refund leaves exactly the slot-held time before the crash —
        // dispatch-to-crash — never a wrapped-around huge value.
        let residue = ctx.worker(WorkerId(0)).busy_us();
        assert_eq!(
            residue, 100,
            "only the 100 µs of slot time before the crash remains"
        );
        // Re-bind the casualty onto worker 1 so the job still completes.
        let probe = ctx.new_bound_probe(task.job, task.raw_duration_us);
        ctx.send_probe(WorkerId(1), probe);
    }
}

#[test]
fn crash_inside_rtt_window_refunds_unstarted_task_time() {
    let mut rng = StdRng::seed_from_u64(3);
    let cluster = MachinePopulation::generate(PopulationProfile::google_like(), 4, &mut rng);
    let result = Simulation::new(
        SimConfig::default(),
        FeasibilityIndex::new(cluster.into_machines()),
        &one_short_job_trace(),
        Box::new(CrashInRttScheduler { struck: false }),
        3,
    )
    .run();
    assert_eq!(result.incomplete_jobs, 0, "re-bound task must complete");
    assert_eq!(result.lost_tasks, 0);
    assert_eq!(result.counters.tasks_completed, 1);
    // Busy-time ledger, reconstructed by hand: the crashed worker keeps the
    // 100 µs its slot was held (dispatch at t=250 µs, crash at t=350 µs);
    // worker 1 then runs the re-bound 1 s task in full. Any refund bug —
    // double-refund, missed refund, or u64 underflow — breaks this exactly.
    assert_eq!(
        result.metrics.busy_us,
        100 + 1_000_000,
        "busy time = pre-crash slot residue + full re-run"
    );
}

#[test]
fn recovered_worker_passes_the_audit_on_reuse() {
    let result = simulate(Box::new(RecycleScheduler));
    assert_eq!(result.incomplete_jobs, 0);
    assert_eq!(result.lost_tasks, 0);
    assert_eq!(result.counters.bound_placements, 1);
}

/// Sends the job's single probe to worker 0 and records the task duration
/// the engine reports back at finish; retries fall back to the default
/// re-placement.
#[derive(Debug)]
struct OneProbeScheduler {
    reported: std::rc::Rc<std::cell::Cell<Option<u64>>>,
}

impl Scheduler for OneProbeScheduler {
    fn name(&self) -> &str {
        "one-probe"
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        let probe = ctx.new_probe(job);
        ctx.send_probe(WorkerId(0), probe);
    }

    fn on_task_finish(
        &mut self,
        _worker: WorkerId,
        _job: JobId,
        duration_us: u64,
        _ctx: &mut SimCtx<'_>,
    ) {
        self.reported.set(Some(duration_us));
    }
}

/// Trace durations are clamped to ≥1 µs at load, but clock scaling can
/// still shrink a 1 µs task to a *zero* integer duration on a machine
/// faster than the reference clock — while the engine schedules its finish
/// 1 µs out. The dispatch path must store that same clamped duration in
/// the running task: an unclamped zero desyncs every consumer of
/// `RunningTask::duration_us` (the `on_task_finish` callback feeding wait
/// estimators, crash-refund arithmetic) from the interval the slot is
/// actually held. Run under the heavy fault profile so the retry/crash
/// machinery is armed around the dispatch.
#[test]
fn rounds_to_zero_task_stores_clamped_duration() {
    let trace = Trace::new(
        "t",
        vec![Job {
            id: JobId(0),
            arrival_s: 0.0,
            task_durations_s: vec![1e-6],
            estimated_task_duration_s: 1.0,
            constraints: Default::default(),
            short: true,
            user: 0,
        }],
    );
    // 4× the reference clock: 1 µs scales to 0.25 µs, rounding to zero.
    let machine = phoenix_constraints::AttributeVector::builder()
        .cpu_clock_mhz(8_800)
        .build();
    let config = SimConfig {
        faults: phoenix_sim::FaultPlan::heavy(),
        scale_duration_by_clock: true,
        ..SimConfig::default()
    };
    let rtt_us = config.rtt().as_micros();
    let reported = std::rc::Rc::new(std::cell::Cell::new(None));
    let result = Simulation::new(
        config,
        FeasibilityIndex::new(vec![machine]),
        &trace,
        Box::new(OneProbeScheduler {
            reported: reported.clone(),
        }),
        3,
    )
    .run();
    assert_eq!(result.counters.tasks_completed, 1);
    assert_eq!(result.incomplete_jobs, 0);
    assert_eq!(
        reported.get(),
        Some(1),
        "finish must report the clamped 1 µs the slot actually ran, not the raw 0"
    );
    // Slot-held time: one fetch RTT (late-bound payload) plus the clamped
    // 1 µs of execution.
    assert_eq!(result.metrics.busy_us, rtt_us + 1);
}
