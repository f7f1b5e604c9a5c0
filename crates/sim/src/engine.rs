//! The discrete-event simulation engine.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use phoenix_constraints::{FeasibilityIndex, SetTable};
use phoenix_traces::{Job, JobId, Trace};

use crate::audit::{AuditConfig, AuditReport, InvariantAuditor, TeeSink};
use crate::config::SimConfig;
use crate::context::{schedule_retry, SimCtx};
use crate::crvledger::CrvLedger;
use crate::event::{Event, EventQueue};
use crate::federation::{FederationState, GOSSIP_INTERVAL};
use crate::jobstate::JobTable;
use crate::metrics::{SimMetrics, SimResult};
use crate::probe::{Probe, ProbeId};
use crate::profile::{ProfileScope, Profiler};
use crate::scheduler::Scheduler;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceRecord, TraceSink, Tracer};
use crate::worker::{RunningTask, Worker, WorkerId};

/// Mutable simulation state shared between the engine and the scheduler
/// (through [`SimCtx`]).
#[derive(Debug)]
pub struct SimState {
    /// Current simulated time.
    pub now: crate::time::SimTime,
    /// Engine configuration.
    pub config: SimConfig,
    /// All workers, indexed by [`WorkerId`].
    pub workers: Vec<Worker>,
    /// The run's jobs: a compact record per arrived job, full state only
    /// for the jobs in flight.
    pub jobs: JobTable,
    /// Feasibility oracle over the cluster's machine attributes.
    pub feasibility: FeasibilityIndex,
    /// The run's constraint sets, interned, with their feasibility results
    /// over `feasibility` memoized.
    pub sets: SetTable,
    /// Metrics under accumulation.
    pub metrics: SimMetrics,
    pub(crate) rng: StdRng,
    /// Dedicated RNG stream for fault injection. Separate from the policy
    /// RNG so that enabling/disabling faults never shifts the draws
    /// schedulers see, and a [`crate::FaultPlan::none`] run stays
    /// byte-identical to a build without the fault layer.
    pub(crate) fault_rng: StdRng,
    pub(crate) touched: Vec<WorkerId>,
    crv_ledger: CrvLedger,
    /// Federated domain state (`None` unless
    /// [`crate::config::FederationConfig::is_partitioned`]). The
    /// `crv_ledger` above then keeps one tally per domain.
    pub(crate) federation: Option<Box<FederationState>>,
    /// The placement domain of the event currently being handled (the
    /// job's home domain, or the domain of the worker an event fired on).
    /// `None` outside federated runs and for cluster-wide control-plane
    /// events (heartbeats, gossip); read by the [`SimCtx`] sampling
    /// ladder.
    pub(crate) active_domain: Option<usize>,
    /// Per worker: virtual time of the crash currently keeping it down.
    /// Empty until the first crash.
    crash_started: Vec<Option<u64>>,
    /// Closed `(crash_us, recover_us)` downtime intervals; open crashes
    /// are closed against the final makespan by [`finalize_result`]. Pure
    /// accounting for [`SimResult::downtime_us`] — not part of the digest.
    downtime_log: Vec<(u64, u64)>,
    next_probe: u64,
    next_task_seq: u64,
    /// Trace record dispatcher (no-op unless a sink is attached). Emits
    /// nothing into the simulation: no RNG draws, no metric writes — a
    /// traced run is byte-identical to an untraced one.
    pub(crate) tracer: Tracer,
    /// Wall-clock hot-path profiler (disabled by default).
    pub(crate) profiler: Profiler,
    /// Jobs neither complete nor failed, maintained incrementally so the
    /// fault layer's continue-striking check is O(1) instead of O(jobs).
    pub(crate) outstanding_jobs: usize,
    /// Workers running a task or holding a queued probe, kept in step by
    /// the queue and slot wrappers below.
    busy_workers: usize,
    /// Jobs that are not failed and still have unlaunched or requeued
    /// tasks, jobs yet to arrive included.
    pub(crate) pending_jobs: usize,
    /// Jobs whose state may have finished during the current event; the
    /// engine retires the finished ones once the event is handled.
    pub(crate) finishing: Vec<JobId>,
}

/// XOR'd into the simulation seed to derive the fault RNG stream.
const FAULT_SEED_SALT: u64 = 0xF417_5EED_0BAD_C0DE;

/// Bucket width of the Fig. 3 queuing-delay time series.
const TIMESERIES_BUCKET: SimDuration = SimDuration::from_secs(60);

impl SimState {
    pub(crate) fn next_probe_id(&mut self) -> ProbeId {
        let id = ProbeId(self.next_probe);
        self.next_probe += 1;
        id
    }

    /// Workers running a task or holding a queued probe
    /// ([`Worker::is_busy`]), in O(1).
    pub fn busy_workers(&self) -> usize {
        self.busy_workers
    }

    /// Jobs that are not failed and still have unlaunched or requeued
    /// tasks ([`crate::JobState::has_pending`]), jobs yet to arrive included, in
    /// O(1).
    pub fn pending_jobs(&self) -> usize {
        self.pending_jobs
    }

    /// Applies `f` to `worker`, keeping [`SimState::busy_workers`] in step
    /// with the worker's busy state.
    fn with_worker<R>(&mut self, worker: WorkerId, f: impl FnOnce(&mut Worker) -> R) -> R {
        let w = &mut self.workers[worker.index()];
        let was_busy = w.is_busy();
        let result = f(w);
        match (was_busy, w.is_busy()) {
            (false, true) => self.busy_workers += 1,
            (true, false) => self.busy_workers -= 1,
            _ => {}
        }
        result
    }

    /// Takes `job`'s next task ([`crate::JobState::take_task`]), keeping
    /// [`SimState::pending_jobs`] in step.
    pub(crate) fn take_task(&mut self, job: JobId) -> u64 {
        let j = self.jobs.get_mut(job);
        let duration = j.take_task();
        if !j.has_pending() {
            self.pending_jobs -= 1;
        }
        duration
    }

    /// Returns a crash-killed task to `job`'s pending pool
    /// ([`crate::JobState::requeue_task`]), keeping [`SimState::pending_jobs`] in
    /// step.
    fn requeue_task(&mut self, job: JobId, raw_duration_us: u64) {
        let j = self.jobs.get_mut(job);
        if !j.has_pending() {
            self.pending_jobs += 1;
        }
        j.requeue_task(raw_duration_us);
    }

    /// Gives up a launched task of the failed `job` (see
    /// [`crate::JobState::in_flight`]); the job may now be finished.
    pub(crate) fn abandon_task(&mut self, job: JobId) {
        self.jobs.get_mut(job).abandon_task();
        self.finishing.push(job);
    }

    /// Retires every job that finished during the current event: writes
    /// its outcome and drops its state.
    pub(crate) fn retire_finished(&mut self) {
        while let Some(job) = self.finishing.pop() {
            self.jobs.retire_if_finished(job);
        }
    }

    /// The CRV demand/supply ledger.
    pub fn crv_ledger(&self) -> &CrvLedger {
        &self.crv_ledger
    }

    /// The federated domain state, when the run is partitioned.
    pub fn federation(&self) -> Option<&FederationState> {
        self.federation.as_deref()
    }

    /// Mutable federation state (engine and sampling-ladder stats).
    pub(crate) fn federation_mut(&mut self) -> Option<&mut FederationState> {
        self.federation.as_deref_mut()
    }

    /// The federated domain owning `worker`; `None` on a centralized run.
    fn domain_of(&self, worker: WorkerId) -> Option<usize> {
        self.federation
            .as_deref()
            .map(|fed| fed.domain_of_worker(worker.index()))
    }

    /// The trace dispatcher (read side: `enabled()` checks).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The trace dispatcher (emission side). Policy code emits via
    /// `tracer_mut().emit(|| …)`; the closure never runs without a sink.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// The wall-clock profiler (read side: `begin()`).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// The wall-clock profiler (accumulation side: `end(scope, started)`).
    pub fn profiler_mut(&mut self) -> &mut Profiler {
        &mut self.profiler
    }

    /// Appends `probe` to the tail of `worker`'s queue, keeping the CRV
    /// ledger in sync.
    ///
    /// All probe movement between queues must go through these
    /// `SimState`/[`SimCtx`] wrappers rather than [`Worker::enqueue`] /
    /// [`Worker::remove_probe`] directly, or the incremental monitor
    /// desyncs (and its debug oracle panics). Pure reordering
    /// ([`Worker::promote`]) needs no wrapper.
    pub fn enqueue_probe(&mut self, worker: WorkerId, probe: Probe) {
        self.ledger_enqueued(worker, &probe);
        self.with_worker(worker, |w| w.enqueue(probe));
    }

    /// Inserts `probe` at the *front* of `worker`'s queue (sticky batch
    /// probing), keeping the CRV ledger in sync.
    pub fn enqueue_probe_front(&mut self, worker: WorkerId, probe: Probe) {
        self.ledger_enqueued(worker, &probe);
        self.with_worker(worker, |w| w.enqueue_front(probe));
    }

    /// Counts `probe` entering `worker`'s queue in the CRV ledger.
    fn ledger_enqueued(&mut self, worker: WorkerId, probe: &Probe) {
        let domain = self.domain_of(worker);
        let set = self.jobs.effective(probe.job);
        self.crv_ledger
            .probe_enqueued(probe.id, set, &self.sets, &self.feasibility, domain);
    }

    /// The engine side of [`Event::JobArrival`]`(index)`, shared by the
    /// engine and the reference executor so the two cannot drift: chains
    /// the next job's arrival under the sequence number
    /// [`Simulation::new`] reserved for it (arrival `i` holds seq `i`),
    /// then admits this job.
    pub(crate) fn arrive(&mut self, events: &mut EventQueue, trace: &Trace, index: u32) -> JobId {
        let jobs = trace.jobs();
        let next = index + 1;
        if let Some(job) = jobs.get(next as usize) {
            let at = SimTime::from_secs_f64(job.arrival_s);
            events.schedule_reserved(at, u64::from(next), Event::JobArrival(next));
        }
        let job = &jobs[index as usize];
        self.job_arrived(job);
        job.id
    }

    /// Builds an arriving job's state, with its own constraint set,
    /// interned, as its effective set. A job without tasks is finished at
    /// birth.
    pub(crate) fn job_arrived(&mut self, job: &Job) {
        let set = self.sets.intern(&job.constraints);
        self.jobs.arrive(job, set);
        if job.task_durations_s.is_empty() {
            self.finishing.push(job.id);
        }
    }

    /// Removes and returns the probe at `index` of `worker`'s queue,
    /// keeping the CRV ledger in sync.
    pub fn remove_probe_at(&mut self, worker: WorkerId, index: usize) -> Probe {
        let probe = self.with_worker(worker, |w| w.remove_probe(index));
        let domain = self.domain_of(worker);
        self.crv_ledger.probe_removed(probe.id, domain);
        probe
    }

    /// Removes and returns every queued probe of `worker` matching
    /// `predicate` (work stealing), keeping the CRV ledger in sync.
    pub fn steal_probes_if(
        &mut self,
        worker: WorkerId,
        predicate: impl FnMut(&Probe) -> bool,
    ) -> Vec<Probe> {
        let stolen = self.with_worker(worker, |w| w.steal_if(predicate));
        let domain = self.domain_of(worker);
        for probe in &stolen {
            self.crv_ledger.probe_removed(probe.id, domain);
        }
        stolen
    }

    /// Occupies a slot of `worker` with `task`, keeping the CRV ledger's
    /// idle-supply side in sync.
    pub fn start_task_on(&mut self, worker: WorkerId, task: RunningTask, now: SimTime) {
        let was_idle = self.workers[worker.index()].is_idle();
        self.with_worker(worker, |w| w.start_task(task, now));
        if was_idle {
            self.crv_ledger.worker_busy(worker.index());
        }
    }

    /// Clears the slot of `worker` running sequence `seq`, keeping the CRV
    /// ledger's idle-supply side in sync.
    pub fn finish_task_on(&mut self, worker: WorkerId, seq: u64) -> RunningTask {
        let task = self.with_worker(worker, |w| w.finish_task(seq));
        if self.workers[worker.index()].is_idle() {
            self.crv_ledger.worker_idle(worker.index());
        }
        task
    }

    /// Crashes `worker`: drops its queued probes, kills its running tasks,
    /// and marks it down, keeping the CRV ledger exact (a dead worker is
    /// never idle supply) and refunding the killed tasks' not-yet-executed
    /// time from the busy-time metric. Returns the casualties — the caller
    /// (engine or test harness) decides how to fail them over.
    pub fn crash_worker(&mut self, worker: WorkerId) -> (Vec<RunningTask>, Vec<Probe>) {
        debug_assert!(self.workers[worker.index()].is_alive(), "double crash");
        // Drain the queue through the ledger-aware path so each probe's
        // demand is subtracted exactly once.
        let dropped = self.steal_probes_if(worker, |_| true);
        let now = self.now;
        let (killed, unspent) = self.with_worker(worker, |w| w.take_running_tasks(now));
        self.workers[worker.index()].set_alive(false);
        // Supply removal: dead counts as busy; idempotent if it already was.
        self.crv_ledger.worker_busy(worker.index());
        // Open a downtime interval for capacity accounting; closed by
        // recovery (or against the final makespan).
        if self.crash_started.is_empty() {
            self.crash_started = vec![None; self.workers.len()];
        }
        self.crash_started[worker.index()] = Some(now.as_micros());
        self.metrics.busy_us = self.metrics.busy_us.saturating_sub(unspent);
        (killed, dropped)
    }

    /// Brings a crashed worker back up, idle with an empty queue, restoring
    /// its idle supply in the CRV ledger.
    pub fn recover_worker(&mut self, worker: WorkerId) {
        let w = &mut self.workers[worker.index()];
        debug_assert!(!w.is_alive(), "recovering a live worker");
        debug_assert!(w.is_idle() && w.queue_len() == 0, "crash did not drain");
        w.set_alive(true);
        self.crv_ledger.worker_idle(worker.index());
        if let Some(start) = self
            .crash_started
            .get_mut(worker.index())
            .and_then(Option::take)
        {
            self.downtime_log.push((start, self.now.as_micros()));
        }
    }

    /// A CRV ledger derived from scratch out of the current queues and
    /// slots (the invariant auditor compares it with the live one).
    pub(crate) fn derive_crv_ledger(&self) -> CrvLedger {
        let ranges = self.federation.as_deref().map_or(&[][..], |f| f.ranges());
        let mut ledger = CrvLedger::new(self.workers.len(), ranges);
        for (i, w) in self.workers.iter().enumerate() {
            if !w.is_idle() || !w.is_alive() {
                ledger.worker_busy(i);
            }
            let domain = self.domain_of(WorkerId(i as u32));
            for p in w.queue() {
                let set = self.jobs.effective(p.job);
                ledger.probe_enqueued(p.id, set, &self.sets, &self.feasibility, domain);
            }
        }
        ledger
    }
}

/// A configured simulation, ready to [`run`](Simulation::run). It borrows
/// the trace for the whole run: each job's state is built from it when the
/// job arrives.
pub struct Simulation<'t> {
    trace: &'t Trace,
    state: SimState,
    events: EventQueue,
    scheduler: Box<dyn Scheduler>,
    /// Online invariant checker (`None` unless
    /// [`Simulation::enable_audit`] was called — the disabled cost is one
    /// branch per event, same discipline as the tracer and profiler).
    auditor: Option<Box<InvariantAuditor>>,
}

impl std::fmt::Debug for Simulation<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("scheduler", &self.scheduler.name())
            .field("workers", &self.state.workers.len())
            // In flight only: arrived jobs that have not finished.
            .field("jobs", &self.state.jobs.live().len())
            // In flight only: one job arrival at a time, not the trace.
            .field("pending_events", &self.events.len())
            .finish()
    }
}

impl<'t> Simulation<'t> {
    /// Builds a simulation of `trace` on the cluster described by
    /// `feasibility`, scheduled by `scheduler`.
    ///
    /// Nothing per job is built here: the simulation keeps `trace` and
    /// builds a job's state when the job arrives, then drops it once the
    /// job has finished and its outcome is written. The event queue holds
    /// only the first arrival; each arrival schedules the next.
    ///
    /// `seed` drives every random choice the scheduler makes (probe
    /// sampling, steal victims); the run is fully deterministic given
    /// `(trace, feasibility, scheduler, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if the cluster is empty.
    pub fn new(
        config: SimConfig,
        feasibility: FeasibilityIndex,
        trace: &'t Trace,
        scheduler: Box<dyn Scheduler>,
        seed: u64,
    ) -> Self {
        assert!(!feasibility.is_empty(), "cluster must have workers");
        let n_workers = feasibility.len();
        let slots = config.slots_per_worker.max(1);
        let workers = (0..feasibility.len())
            .map(|_| Worker::with_slots(slots))
            .collect();
        let jobs = trace.jobs();
        debug_assert!(
            jobs.iter().enumerate().all(|(i, j)| j.id.0 as usize == i)
                && jobs.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s),
            "arrival chaining needs jobs numbered in arrival order"
        );
        let mut events = EventQueue::new();
        // Arrival `i` keeps seq `i`, the key scheduling every arrival up
        // front would give it, but only the first is queued now: each
        // arrival schedules the next (`SimState::arrive`).
        events.reserve_seqs(jobs.len() as u64);
        if let Some(first) = jobs.first() {
            let at = SimTime::from_secs_f64(first.arrival_s);
            events.schedule_reserved(at, 0, Event::JobArrival(0));
        }
        let mut fault_rng = StdRng::seed_from_u64(seed ^ FAULT_SEED_SALT);
        if config.faults.crashes_enabled() && !jobs.is_empty() {
            let interval = config.faults.crash_interval.as_micros().max(1);
            let at = SimDuration(interval / 2 + fault_rng.random_range(0..interval));
            let victim = WorkerId(fault_rng.random_range(0..n_workers) as u32);
            events.schedule(SimTime::ZERO + at, Event::WorkerCrash(victim));
        }
        let federation = config
            .federation
            .is_partitioned()
            .then(|| Box::new(FederationState::new(config.federation, n_workers)));
        if federation.is_some() && !jobs.is_empty() {
            // First gossip round; subsequent rounds chain themselves while
            // work is outstanding.
            events.schedule(SimTime::ZERO + GOSSIP_INTERVAL, Event::GossipPublish);
        }
        let ranges = federation.as_deref().map_or(&[][..], |f| f.ranges());
        let crv_ledger = CrvLedger::new(n_workers, ranges);
        let metrics = SimMetrics::new(TIMESERIES_BUCKET, config.record_task_waits);
        // Zero-task jobs are born complete, so the outstanding count is a
        // filter, not `jobs.len()`. Before any arrival, the jobs with work
        // outstanding are exactly those with tasks pending.
        let outstanding_jobs = jobs.iter().filter(|j| j.num_tasks() > 0).count();
        Simulation {
            trace,
            state: SimState {
                now: crate::time::SimTime::ZERO,
                config,
                workers,
                jobs: JobTable::with_capacity(jobs.len()),
                feasibility,
                sets: SetTable::default(),
                metrics,
                rng: StdRng::seed_from_u64(seed),
                fault_rng,
                touched: Vec::new(),
                crv_ledger,
                federation,
                active_domain: None,
                crash_started: Vec::new(),
                downtime_log: Vec::new(),
                next_probe: 0,
                next_task_seq: 0,
                tracer: Tracer::disabled(),
                profiler: Profiler::disabled(),
                outstanding_jobs,
                busy_workers: 0,
                pending_jobs: outstanding_jobs,
                finishing: Vec::new(),
            },
            events,
            scheduler,
            auditor: None,
        }
    }

    /// Attaches a [`TraceSink`] receiving this run's [`TraceRecord`]s.
    /// Tracing observes only — it draws no randomness and writes no
    /// metrics, so the run's `digest()` is unchanged.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.state.tracer = Tracer::with_sink(sink);
    }

    /// Enables wall-clock profiling of the engine hot paths; the report is
    /// returned in [`SimResult::profile`].
    pub fn enable_profiling(&mut self) {
        self.state.profiler = Profiler::enabled();
    }

    /// Attaches an [`InvariantAuditor`] re-checking the engine's
    /// conservation laws after every event; the report is returned in
    /// [`SimResult::audit`]. Auditing observes only — it draws no
    /// randomness and writes no metrics, so the run's `digest()` is
    /// unchanged (the parity tests pin this).
    ///
    /// The auditor also tees the trace stream through a record-level
    /// checker, wrapping any sink attached so far — call
    /// [`Simulation::set_trace_sink`] *before* this, not after (a later
    /// `set_trace_sink` replaces the tee and silences the stream checks).
    pub fn enable_audit(&mut self, config: AuditConfig) {
        let auditor = Box::new(InvariantAuditor::new(config));
        let observer = auditor.stream_observer();
        self.state.tracer = match self.state.tracer.take_sink() {
            Some(existing) => Tracer::with_sink(Box::new(TeeSink {
                first: existing,
                second: observer,
            })),
            None => Tracer::with_sink(observer),
        };
        self.auditor = Some(auditor);
    }

    /// Read access to the state (tests and tools).
    pub fn state(&self) -> &SimState {
        &self.state
    }

    /// Consumes the simulation, returning its state without running it.
    /// Every job counts as arrived: its state is built and its effective
    /// set interned.
    ///
    /// Intended for tests and policy harnesses that drive state directly
    /// (e.g. exercising queue-reordering helpers on a realistic state).
    pub fn into_state_for_tests(mut self) -> SimState {
        for job in self.trace.jobs() {
            self.state.job_arrived(job);
        }
        self.state
    }

    /// Decomposes the simulation for the reference executor, which drives
    /// the same state and scheduler through its own naive event loop.
    pub(crate) fn into_parts(self) -> (SimState, EventQueue, Box<dyn Scheduler>, &'t Trace) {
        (self.state, self.events, self.scheduler, self.trace)
    }

    /// Runs the simulation to completion and returns the result.
    pub fn run(mut self) -> SimResult {
        self.run_events();
        let audit = self.auditor.map(|a| a.finish());
        finalize_result(
            self.state,
            &self.events,
            self.scheduler.name().to_string(),
            audit,
        )
    }

    /// Handles events until the queue is empty.
    fn run_events(&mut self) {
        loop {
            let started = self.state.profiler.begin();
            let popped = self.events.pop();
            self.state.profiler.end(ProfileScope::EventPop, started);
            let Some((t, event)) = popped else { break };
            debug_assert!(t >= self.state.now, "time must not go backwards");
            let heartbeat = self.auditor.is_some() && matches!(event, Event::SchedulerWakeup(_));
            self.state.now = t;
            self.state.active_domain = self.placement_domain(&event);
            let started = self.state.profiler.begin();
            self.handle(event);
            self.state.profiler.end(ProfileScope::HandleEvent, started);
            self.drain_touched();
            self.state.active_domain = None;
            self.state.retire_finished();
            if let Some(auditor) = self.auditor.as_deref_mut() {
                auditor.after_event(heartbeat, &self.state, &self.events, self.trace);
            }
        }
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::JobArrival(index) => {
                let id = self.state.arrive(&mut self.events, self.trace, index);
                let mut ctx = SimCtx {
                    state: &mut self.state,
                    events: &mut self.events,
                };
                self.scheduler.on_job_arrival(id, &mut ctx);
            }
            Event::ProbeArrival(worker, mut probe) => {
                if !self.state.workers[worker.index()].is_alive() {
                    // The target died while the probe was in flight: bounce
                    // it into the retry path after its backoff.
                    self.state.metrics.counters.probes_lost += 1;
                    schedule_retry(&mut self.events, &self.state, probe);
                    return;
                }
                probe.enqueued_at = self.state.now;
                self.state.enqueue_probe(worker, probe);
                let mut ctx = SimCtx {
                    state: &mut self.state,
                    events: &mut self.events,
                };
                self.scheduler.on_probe_enqueued(worker, &mut ctx);
                self.state.touched.push(worker);
            }
            Event::TaskFinish(worker, seq) => {
                if !self.state.workers[worker.index()].has_running_seq(seq) {
                    // Stale completion of a task killed by a crash; its
                    // retry probe already carries the work elsewhere.
                    return;
                }
                let task = self.state.finish_task_on(worker, seq);
                self.state.metrics.counters.tasks_completed += 1;
                let job = self.state.jobs.get_mut(task.job);
                let done = job.complete_task(self.state.now);
                if done || job.is_failed() {
                    self.state.finishing.push(task.job);
                }
                if self.state.now > self.state.metrics.makespan {
                    self.state.metrics.makespan = self.state.now;
                }
                if done {
                    let job = self.state.jobs.get(task.job);
                    if !job.is_failed() {
                        // The job just left the outstanding set (a failed
                        // job already left it when it was failed).
                        self.state.outstanding_jobs -= 1;
                    }
                    self.state.metrics.record_job_completion(job);
                    let mut ctx = SimCtx {
                        state: &mut self.state,
                        events: &mut self.events,
                    };
                    self.scheduler.on_job_complete(task.job, &mut ctx);
                }
                let mut ctx = SimCtx {
                    state: &mut self.state,
                    events: &mut self.events,
                };
                self.scheduler
                    .on_task_finish(worker, task.job, task.duration_us, &mut ctx);
                self.state.touched.push(worker);
            }
            Event::SchedulerWakeup(token) => {
                let mut ctx = SimCtx {
                    state: &mut self.state,
                    events: &mut self.events,
                };
                self.scheduler.on_wakeup(token, &mut ctx);
            }
            Event::WorkerCrash(worker) => {
                // Chain the next strike first (gated on outstanding work so
                // the event loop terminates once the trace is done).
                self.schedule_next_crash();
                if self.state.workers[worker.index()].is_alive() {
                    self.apply_crash(worker);
                }
            }
            Event::WorkerRecover(worker) => {
                self.state.recover_worker(worker);
                self.state.metrics.counters.worker_recoveries += 1;
                let at_us = self.state.now.as_micros();
                self.state.tracer.emit(|| TraceRecord::Recover {
                    at_us,
                    worker: worker.0,
                });
                let mut ctx = SimCtx {
                    state: &mut self.state,
                    events: &mut self.events,
                };
                self.scheduler.on_worker_recover(worker, &mut ctx);
            }
            Event::ProbeRetry(probe) => {
                let mut ctx = SimCtx {
                    state: &mut self.state,
                    events: &mut self.events,
                };
                self.scheduler.on_probe_retry(probe, &mut ctx);
            }
            Event::GossipPublish => {
                // Chain the next round first (gated on outstanding work,
                // like the crash chain, so the event loop terminates).
                self.schedule_next_gossip();
                let now = self.state.now;
                let mut deliver_after = None;
                if let Some(fed) = self.state.federation.as_deref_mut() {
                    if fed.publish(now, &self.state.crv_ledger) {
                        deliver_after = Some(fed.config().staleness);
                    }
                }
                if let Some(staleness) = deliver_after {
                    self.events.schedule(now + staleness, Event::GossipDeliver);
                }
            }
            Event::GossipDeliver => {
                if let Some(fed) = self.state.federation_mut() {
                    fed.deliver();
                }
            }
        }
    }

    /// The placement domain of `event` under a partitioned federation:
    /// job-scoped events belong to the job's home domain, worker-scoped
    /// events to the worker's domain, and control-plane events (wakeups,
    /// gossip) to none. `None` whenever the run is not partitioned.
    fn placement_domain(&self, event: &Event) -> Option<usize> {
        let fed = self.state.federation.as_deref()?;
        match event {
            Event::JobArrival(index) => Some(fed.domain_of_job(*index)),
            Event::ProbeRetry(probe) => Some(fed.domain_of_job(probe.job.0)),
            Event::ProbeArrival(worker, _)
            | Event::TaskFinish(worker, _)
            | Event::WorkerCrash(worker)
            | Event::WorkerRecover(worker) => Some(fed.domain_of_worker(worker.index())),
            Event::SchedulerWakeup(_) | Event::GossipPublish | Event::GossipDeliver => None,
        }
    }

    /// Chains the next gossip round while any job still has work
    /// outstanding. Gossip draws no randomness — the policy and fault RNG
    /// streams are untouched, so a K-domain run is reproducible.
    fn schedule_next_gossip(&mut self) {
        if self.state.federation().is_none() || self.state.outstanding_jobs == 0 {
            return;
        }
        self.events
            .schedule(self.state.now + GOSSIP_INTERVAL, Event::GossipPublish);
    }

    /// Schedules the next crash strike (jittered interval, uniform victim)
    /// while any job still has work outstanding.
    fn schedule_next_crash(&mut self) {
        if !self.state.config.faults.crashes_enabled() {
            return;
        }
        // Incremental counter instead of an O(jobs) rescan per strike; the
        // oracle below keeps it honest in debug builds.
        debug_assert_eq!(
            self.state.outstanding_jobs,
            self.state
                .jobs
                .live()
                .iter()
                .filter(|j| !j.is_complete() && !j.is_failed())
                .count()
                + self.trace.jobs()[self.state.jobs.arrived()..]
                    .iter()
                    .filter(|j| j.num_tasks() > 0)
                    .count(),
            "outstanding-jobs counter desynced from the job table"
        );
        if self.state.outstanding_jobs == 0 {
            return;
        }
        let interval = self.state.config.faults.crash_interval.as_micros().max(1);
        let n = self.state.workers.len();
        let at = SimDuration(interval / 2 + self.state.fault_rng.random_range(0..interval));
        let victim = WorkerId(self.state.fault_rng.random_range(0..n) as u32);
        self.events
            .schedule(self.state.now + at, Event::WorkerCrash(victim));
    }

    /// Delivers a crash strike to a live worker: kills its running tasks,
    /// drops its queued probes, fails every casualty over into the retry
    /// path, and schedules the recovery.
    fn apply_crash(&mut self, worker: WorkerId) {
        self.state.metrics.counters.worker_crashes += 1;
        let (killed, dropped) = self.state.crash_worker(worker);
        let at_us = self.state.now.as_micros();
        let (n_killed, n_dropped) = (killed.len() as u32, dropped.len() as u32);
        self.state.tracer.emit(|| TraceRecord::Crash {
            at_us,
            worker: worker.0,
            killed: n_killed,
            dropped: n_dropped,
        });
        for probe in dropped {
            self.state.metrics.counters.probes_lost += 1;
            schedule_retry(&mut self.events, &self.state, probe);
        }
        for task in killed {
            self.state.metrics.counters.tasks_killed += 1;
            if self.state.jobs.get(task.job).is_failed() {
                // Failed jobs' tasks are cancelled work; nothing to retry.
                self.state.abandon_task(task.job);
                continue;
            }
            let bound_duration_us = if task.bound {
                // Early-bound payload travels with its retry probe.
                Some(task.raw_duration_us)
            } else {
                // Late-bound launch is undone: the duration returns to the
                // job's pending pool and a fresh speculative probe will
                // reclaim it (or be discarded as redundant if a sibling
                // probe got there first).
                self.state.requeue_task(task.job, task.raw_duration_us);
                self.state.metrics.counters.requeued_tasks += 1;
                None
            };
            let retry = Probe {
                id: self.state.next_probe_id(),
                job: task.job,
                bound_duration_us,
                est_duration_us: self.state.jobs.estimated_task_us(task.job),
                slowdown: task.slowdown,
                enqueued_at: self.state.now,
                bypass_count: 0,
                migrations: 0,
                retries: 0,
            };
            schedule_retry(&mut self.events, &self.state, retry);
        }
        let downtime = self.state.config.faults.downtime.as_micros();
        let back_up = if downtime > 0 {
            SimDuration(downtime / 2 + self.state.fault_rng.random_range(0..downtime))
        } else {
            SimDuration(1)
        };
        self.events
            .schedule(self.state.now + back_up, Event::WorkerRecover(worker));
        let mut ctx = SimCtx {
            state: &mut self.state,
            events: &mut self.events,
        };
        self.scheduler.on_worker_crash(worker, &mut ctx);
    }

    fn drain_touched(&mut self) {
        while let Some(worker) = self.state.touched.pop() {
            // Conservation audit: a policy hook may have reordered the
            // queue through `Worker::queue_mut`; verify it did not desync
            // the cached bound-work aggregate.
            #[cfg(debug_assertions)]
            self.state.workers[worker.index()].audit_bound_work();
            let started = self.state.profiler.begin();
            self.try_dispatch(worker);
            self.state.profiler.end(ProfileScope::Dispatch, started);
        }
    }

    /// Serves a worker's queue while it has free slots: pops probes in
    /// policy order, discards redundant speculative probes for free, and
    /// launches probes that yield tasks.
    fn try_dispatch(&mut self, worker: WorkerId) {
        loop {
            let w = &self.state.workers[worker.index()];
            if !w.is_alive() || !w.has_free_slot() || w.queue_len() == 0 {
                return;
            }
            let Some(idx) = self.scheduler.select_probe(worker, &self.state) else {
                return;
            };
            let probe = self.state.remove_probe_at(worker, idx);
            let (raw_duration_us, fetch_delay) = match probe.bound_duration_us {
                // Early-bound task: the payload travelled with the probe.
                Some(d) => (d, SimDuration::ZERO),
                None => {
                    if !self.state.jobs.has_pending(probe.job) {
                        // Late binding win: every task already launched
                        // elsewhere; drop the redundant probe.
                        self.state.metrics.counters.redundant_probes += 1;
                        continue;
                    }
                    // Ask the job's scheduler for a task: one round trip.
                    let d = self.state.take_task(probe.job);
                    (d, self.state.config.rtt())
                }
            };
            if let Some(auditor) = self.auditor.as_deref_mut() {
                // Every actual launch (not redundant-probe discards) is
                // re-verified against the job's hard constraints.
                auditor.check_placement(&self.state, worker, probe.job);
            }
            let clock_factor = if self.state.config.scale_duration_by_clock {
                let clock = self.state.feasibility.machines()[worker.index()].cpu_clock_mhz;
                f64::from(self.state.config.reference_clock_mhz) / f64::from(clock.max(1))
            } else {
                1.0
            };
            // Clamp to 1 us once, here: sub-microsecond tasks round to a
            // zero duration, but the engine schedules their finish 1 us
            // out. Storing the unclamped value would desync every
            // consumer of RunningTask::duration_us (busy-time accounting,
            // estimator service records, scheduler callbacks) from the
            // interval the worker is actually occupied.
            let duration_us = (((raw_duration_us as f64) * probe.slowdown.max(1.0) * clock_factor)
                .round() as u64)
                .max(1);
            if probe.slowdown > 1.0 {
                self.state.metrics.counters.relaxed_tasks += 1;
            }
            let start = self.state.now + fetch_delay;
            let finish = start + SimDuration(duration_us);
            let now = self.state.now;
            {
                // Borrow-split so the job's wait accumulator and the
                // metrics sink can be touched in one pass.
                let SimState { jobs, metrics, .. } = &mut self.state;
                let job = jobs.get_mut(probe.job);
                let wait = start.since(job.arrival);
                job.wait_sum_us += wait.as_micros();
                metrics.record_task_wait(job, wait, now);
            }
            let seq = self.state.next_task_seq;
            self.state.next_task_seq += 1;
            self.state.start_task_on(
                worker,
                RunningTask {
                    job: probe.job,
                    finish_at: finish,
                    duration_us,
                    raw_duration_us,
                    slowdown: probe.slowdown,
                    bound: probe.is_bound(),
                    seq,
                },
                now,
            );
            self.state.metrics.busy_us += finish.since(now).as_micros();
            self.events.schedule(finish, Event::TaskFinish(worker, seq));
            // Multi-slot workers may admit further probes right away.
            if self.state.workers[worker.index()].has_free_slot() {
                continue;
            }
            return;
        }
    }
}

/// Builds the [`SimResult`] out of a finished run's state — the shared
/// epilogue of [`Simulation::run`] and the reference executor (the epilogue
/// summarizes; the content it summarizes was computed independently).
pub(crate) fn finalize_result(
    mut state: SimState,
    events: &EventQueue,
    scheduler: String,
    audit: Option<AuditReport>,
) -> SimResult {
    state.tracer.flush();
    // Close still-open crash intervals against the end of the run and sum
    // per-worker downtime, clamped to the final makespan (capacity lost
    // after the last task finished is outside the utilization window).
    let final_us = state.metrics.makespan.as_micros();
    for started in &mut state.crash_started {
        if let Some(start) = started.take() {
            state.downtime_log.push((start, final_us));
        }
    }
    let downtime_us: u64 = state
        .downtime_log
        .iter()
        .map(|&(start, end)| end.min(final_us).saturating_sub(start.min(final_us)))
        .sum();
    // Finished jobs are complete or failed, so only jobs still in flight
    // can be incomplete or have lost tasks.
    let live = state.jobs.live();
    let incomplete = live
        .iter()
        .filter(|j| !j.is_complete() && !j.is_failed())
        .count();
    let lost_tasks: u64 = live
        .iter()
        .filter(|j| !j.is_failed())
        .map(|j| (j.num_tasks() - j.completed_tasks()) as u64)
        .sum();
    let job_table = state.jobs.stats();
    let job_outcomes = std::mem::take(&mut state.jobs).into_outcomes();
    SimResult {
        scheduler,
        workers: state.workers.len(),
        slots_per_worker: state.config.slots_per_worker.max(1),
        counters: state.metrics.counters,
        metrics: state.metrics,
        incomplete_jobs: incomplete,
        lost_tasks,
        job_outcomes,
        downtime_us,
        federation: state.federation.as_deref().map(|f| f.stats),
        profile: state.profiler.report(),
        audit,
        set_cache: state.sets.stats(),
        event_queue: events.stats(),
        job_table,
    }
}

#[cfg(test)]
mod tests {
    use phoenix_constraints::{
        AttributeVector, Constraint, ConstraintKind, ConstraintOp, ConstraintSet,
    };
    use phoenix_traces::Job;

    use super::*;
    use crate::config::FederationConfig;
    use crate::fault::FaultPlan;
    use crate::random::RandomScheduler;

    /// Places jobs with [`RandomScheduler`] and checks, as each job
    /// arrives, that the table holds a state for exactly the jobs in
    /// flight: every job that finished in an earlier event is gone.
    #[derive(Debug)]
    struct InFlightCheck {
        inner: RandomScheduler,
        arrived: usize,
        finished: usize,
    }

    impl Scheduler for InFlightCheck {
        fn name(&self) -> &str {
            "in-flight-check"
        }

        fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
            self.arrived += 1;
            assert_eq!(
                ctx.state().jobs.live().len(),
                self.arrived - self.finished,
                "live states at the arrival of job {}",
                job.0
            );
            if ctx.job(job).num_tasks() > 0 {
                self.inner.on_job_arrival(job, ctx);
            }
            let j = ctx.job(job);
            if j.num_tasks() == 0 || j.is_failed() {
                self.finished += 1;
            }
        }

        fn on_job_complete(&mut self, _job: JobId, _ctx: &mut SimCtx<'_>) {
            self.finished += 1;
        }
    }

    /// A job's state lives from its arrival until it finishes, and every
    /// job's outcome still comes out in id order: complete ones, failed
    /// (hard-unsatisfiable) ones and ones without tasks.
    #[test]
    fn job_table_holds_only_jobs_in_flight() {
        let unsatisfiable = ConstraintSet::from_constraints(vec![Constraint::hard(
            ConstraintKind::NumCores,
            ConstraintOp::Gt,
            1_000,
        )]);
        let kind = |i: u32| i % 50;
        let jobs = (0..10_000u32)
            .map(|i| Job {
                id: JobId(i),
                arrival_s: f64::from(i) * 0.2,
                task_durations_s: if kind(i) == 25 { Vec::new() } else { vec![1.0] },
                estimated_task_duration_s: 1.0,
                constraints: if kind(i) == 0 {
                    unsatisfiable.clone()
                } else {
                    ConstraintSet::unconstrained()
                },
                short: true,
                user: 0,
            })
            .collect();
        let trace = Trace::new("in-flight", jobs);
        let scheduler = InFlightCheck {
            inner: RandomScheduler::new(2),
            arrived: 0,
            finished: 0,
        };
        let mut sim = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(vec![AttributeVector::default(); 8]),
            &trace,
            Box::new(scheduler),
            1,
        );
        sim.run_events();
        assert!(sim.state.jobs.live().is_empty(), "{sim:?}");
        let result = sim.run();
        assert_eq!(result.counters.jobs_failed, 200);
        assert_eq!(result.incomplete_jobs, 0);
        assert_eq!(result.job_table.peak_finished, 10_000);
        // 5 tasks/s on 8 workers keeps a handful of jobs in flight.
        assert!(result.job_table.peak_live < 100, "{:?}", result.job_table);
        assert_eq!(result.job_outcomes.len(), 10_000);
        for (i, outcome) in result.job_outcomes.iter().enumerate() {
            assert_eq!(outcome.job, JobId(i as u32));
            let (failed, responded) = match kind(i as u32) {
                0 => (true, false),
                25 => (false, false),
                _ => (false, true),
            };
            assert_eq!(outcome.failed, failed, "job {i}");
            assert_eq!(outcome.response_s.is_some(), responded, "job {i}");
        }
    }

    /// The queue grows with what is in flight, not with the trace: a new
    /// simulation holds the first job arrival, plus the first crash strike
    /// and the first gossip round when those are configured.
    #[test]
    fn new_simulation_queues_only_the_first_arrival() {
        let jobs = (0..10_000u32)
            .map(|i| Job {
                id: JobId(i),
                arrival_s: f64::from(i) * 0.01,
                task_durations_s: vec![1.0],
                estimated_task_duration_s: 1.0,
                constraints: ConstraintSet::unconstrained(),
                short: true,
                user: 0,
            })
            .collect();
        let trace = Trace::new("arrivals", jobs);
        let cluster = || FeasibilityIndex::new(vec![AttributeVector::default(); 8]);
        let sharded = FederationConfig::sharded(2, SimDuration::from_millis(10));
        for (faults, federation, expected) in [
            (FaultPlan::none(), FederationConfig::off(), 1),
            (FaultPlan::reference(), FederationConfig::off(), 2),
            (FaultPlan::none(), sharded, 2),
            (FaultPlan::reference(), sharded, 3),
        ] {
            let config = SimConfig {
                faults,
                federation,
                ..SimConfig::default()
            };
            let sim = Simulation::new(
                config,
                cluster(),
                &trace,
                Box::new(RandomScheduler::new(2)),
                1,
            );
            assert_eq!(sim.events.len(), expected, "{sim:?}");
            assert_eq!(sim.events.stats().peak_pending, expected as u64);
        }
    }
}
