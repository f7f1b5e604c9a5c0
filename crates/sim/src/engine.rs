//! The discrete-event simulation engine.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use phoenix_constraints::{FeasibilityIndex, SetTable};
use phoenix_traces::{JobId, Trace};

use crate::audit::{AuditConfig, AuditReport, InvariantAuditor, TeeSink};
use crate::config::SimConfig;
use crate::context::{schedule_retry, SimCtx};
use crate::crvledger::CrvLedger;
use crate::event::{Event, EventQueue};
use crate::federation::{FederationState, GOSSIP_INTERVAL};
use crate::jobstate::JobState;
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
    /// All jobs, indexed by [`phoenix_traces::JobId`].
    pub jobs: Vec<JobState>,
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
        self.workers[worker.index()].enqueue(probe);
    }

    /// Inserts `probe` at the *front* of `worker`'s queue (sticky batch
    /// probing), keeping the CRV ledger in sync.
    pub fn enqueue_probe_front(&mut self, worker: WorkerId, probe: Probe) {
        self.ledger_enqueued(worker, &probe);
        self.workers[worker.index()].enqueue_front(probe);
    }

    /// Counts `probe` entering `worker`'s queue in the CRV ledger.
    fn ledger_enqueued(&mut self, worker: WorkerId, probe: &Probe) {
        let domain = self.domain_of(worker);
        let set = self.jobs[probe.job.0 as usize].effective();
        self.crv_ledger
            .probe_enqueued(probe.id, set, &self.sets, &self.feasibility, domain);
    }

    /// The engine side of [`Event::JobArrival`]`(index)`, shared by the
    /// engine and the reference executor so the two cannot drift: chains
    /// the next job's arrival under the sequence number
    /// [`Simulation::new`] reserved for it (arrival `i` holds seq `i`),
    /// then interns this job's effective set.
    pub(crate) fn arrive(&mut self, events: &mut EventQueue, index: u32) -> JobId {
        let next = index + 1;
        if let Some(job) = self.jobs.get(next as usize) {
            events.schedule_reserved(job.arrival, u64::from(next), Event::JobArrival(next));
        }
        let id = JobId(index);
        self.job_arrived(id);
        id
    }

    /// Interns an arriving job's constraint set as its effective set.
    pub(crate) fn job_arrived(&mut self, job: JobId) {
        let job = &mut self.jobs[job.0 as usize];
        job.set_effective(self.sets.intern(&job.constraints));
    }

    /// Removes and returns the probe at `index` of `worker`'s queue,
    /// keeping the CRV ledger in sync.
    pub fn remove_probe_at(&mut self, worker: WorkerId, index: usize) -> Probe {
        let probe = self.workers[worker.index()].remove_probe(index);
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
        let stolen = self.workers[worker.index()].steal_if(predicate);
        let domain = self.domain_of(worker);
        for probe in &stolen {
            self.crv_ledger.probe_removed(probe.id, domain);
        }
        stolen
    }

    /// Occupies a slot of `worker` with `task`, keeping the CRV ledger's
    /// idle-supply side in sync.
    pub fn start_task_on(&mut self, worker: WorkerId, task: RunningTask, now: SimTime) {
        let w = &mut self.workers[worker.index()];
        let was_idle = w.is_idle();
        w.start_task(task, now);
        if was_idle {
            self.crv_ledger.worker_busy(worker.index());
        }
    }

    /// Clears the slot of `worker` running sequence `seq`, keeping the CRV
    /// ledger's idle-supply side in sync.
    pub fn finish_task_on(&mut self, worker: WorkerId, seq: u64) -> RunningTask {
        let w = &mut self.workers[worker.index()];
        let task = w.finish_task(seq);
        if w.is_idle() {
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
        let w = &mut self.workers[worker.index()];
        let (killed, unspent) = w.take_running_tasks(now);
        w.set_alive(false);
        // Supply removal: dead counts as busy; idempotent if it already was.
        self.crv_ledger.worker_busy(worker.index());
        // Open a downtime interval for capacity accounting; closed by
        // recovery (or against the final makespan).
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
        if let Some(start) = self.crash_started[worker.index()].take() {
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
                let set = self.jobs[p.job.0 as usize].effective();
                ledger.probe_enqueued(p.id, set, &self.sets, &self.feasibility, domain);
            }
        }
        ledger
    }
}

/// A configured simulation, ready to [`run`](Simulation::run).
pub struct Simulation {
    state: SimState,
    events: EventQueue,
    scheduler: Box<dyn Scheduler>,
    /// Online invariant checker (`None` unless
    /// [`Simulation::enable_audit`] was called — the disabled cost is one
    /// branch per event, same discipline as the tracer and profiler).
    auditor: Option<Box<InvariantAuditor>>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("scheduler", &self.scheduler.name())
            .field("workers", &self.state.workers.len())
            .field("jobs", &self.state.jobs.len())
            // In flight only: one job arrival at a time, not the trace.
            .field("pending_events", &self.events.len())
            .finish()
    }
}

impl Simulation {
    /// Builds a simulation of `trace` on the cluster described by
    /// `feasibility`, scheduled by `scheduler`.
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
        trace: &Trace,
        scheduler: Box<dyn Scheduler>,
        seed: u64,
    ) -> Self {
        assert!(!feasibility.is_empty(), "cluster must have workers");
        let n_workers = feasibility.len();
        let slots = config.slots_per_worker.max(1);
        let workers = (0..feasibility.len())
            .map(|_| Worker::with_slots(slots))
            .collect();
        let jobs: Vec<JobState> = trace.iter().map(JobState::from_job).collect();
        debug_assert!(
            jobs.iter().enumerate().all(|(i, j)| j.id.0 as usize == i)
                && jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "arrival chaining needs jobs numbered in arrival order"
        );
        let mut events = EventQueue::new();
        // Arrival `i` keeps seq `i`, the key scheduling every arrival up
        // front would give it, but only the first is queued now: each
        // arrival schedules the next (`SimState::arrive`).
        events.reserve_seqs(jobs.len() as u64);
        if let Some(first) = jobs.first() {
            events.schedule_reserved(first.arrival, 0, Event::JobArrival(0));
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
        // filter, not `jobs.len()`.
        let outstanding_jobs = jobs
            .iter()
            .filter(|j| !j.is_complete() && !j.is_failed())
            .count();
        Simulation {
            state: SimState {
                now: crate::time::SimTime::ZERO,
                config,
                workers,
                jobs,
                feasibility,
                sets: SetTable::default(),
                metrics,
                rng: StdRng::seed_from_u64(seed),
                fault_rng,
                touched: Vec::new(),
                crv_ledger,
                federation,
                active_domain: None,
                crash_started: vec![None; n_workers],
                downtime_log: Vec::new(),
                next_probe: 0,
                next_task_seq: 0,
                tracer: Tracer::disabled(),
                profiler: Profiler::disabled(),
                outstanding_jobs,
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
    /// Every job counts as arrived: its effective set is interned.
    ///
    /// Intended for tests and policy harnesses that drive state directly
    /// (e.g. exercising queue-reordering helpers on a realistic state).
    pub fn into_state_for_tests(mut self) -> SimState {
        for i in 0..self.state.jobs.len() {
            self.state.job_arrived(JobId(i as u32));
        }
        self.state
    }

    /// Decomposes the simulation for the reference executor, which drives
    /// the same state and scheduler through its own naive event loop.
    pub(crate) fn into_parts(self) -> (SimState, EventQueue, Box<dyn Scheduler>) {
        (self.state, self.events, self.scheduler)
    }

    /// Runs the simulation to completion and returns the result.
    pub fn run(mut self) -> SimResult {
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
            if let Some(auditor) = self.auditor.as_deref_mut() {
                auditor.after_event(heartbeat, &self.state, &self.events);
            }
        }
        let audit = self.auditor.map(|a| a.finish());
        finalize_result(
            self.state,
            &self.events,
            self.scheduler.name().to_string(),
            audit,
        )
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::JobArrival(index) => {
                let id = self.state.arrive(&mut self.events, index);
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
                let job_idx = task.job.0 as usize;
                let done = self.state.jobs[job_idx].complete_task(self.state.now);
                if self.state.now > self.state.metrics.makespan {
                    self.state.metrics.makespan = self.state.now;
                }
                if done {
                    if !self.state.jobs[job_idx].is_failed() {
                        // The job just left the outstanding set (a failed
                        // job already left it when it was failed).
                        self.state.outstanding_jobs -= 1;
                    }
                    self.state
                        .metrics
                        .record_job_completion(&self.state.jobs[job_idx]);
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
                .iter()
                .filter(|j| !j.is_complete() && !j.is_failed())
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
            let job_idx = task.job.0 as usize;
            if self.state.jobs[job_idx].is_failed() {
                // Failed jobs' tasks are cancelled work; nothing to retry.
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
                self.state.jobs[job_idx].requeue_task(task.raw_duration_us);
                self.state.metrics.counters.requeued_tasks += 1;
                None
            };
            let retry = Probe {
                id: self.state.next_probe_id(),
                job: task.job,
                bound_duration_us,
                est_duration_us: self.state.jobs[job_idx].estimated_task_us,
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
            let job_idx = probe.job.0 as usize;
            let (raw_duration_us, fetch_delay) = match probe.bound_duration_us {
                // Early-bound task: the payload travelled with the probe.
                Some(d) => (d, SimDuration::ZERO),
                None => {
                    if !self.state.jobs[job_idx].has_pending() {
                        // Late binding win: every task already launched
                        // elsewhere; drop the redundant probe.
                        self.state.metrics.counters.redundant_probes += 1;
                        continue;
                    }
                    // Ask the job's scheduler for a task: one round trip.
                    let d = self.state.jobs[job_idx].take_task();
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
                let job = &mut jobs[job_idx];
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
    let incomplete = state
        .jobs
        .iter()
        .filter(|j| !j.is_complete() && !j.is_failed())
        .count();
    let lost_tasks: u64 = state
        .jobs
        .iter()
        .filter(|j| !j.is_failed())
        .map(|j| (j.num_tasks() - j.completed_tasks()) as u64)
        .sum();
    let job_outcomes = state
        .jobs
        .iter()
        .map(|j| crate::metrics::JobOutcome {
            job: j.id,
            short: j.short,
            user: j.user,
            constrained: j.is_constrained(),
            response_s: j.response_time().map(|d| d.as_secs_f64()),
            mean_wait_s: j.mean_wait().map(|d| d.as_secs_f64()),
            ideal_s: j.max_task_us as f64 / 1e6,
            failed: j.is_failed(),
        })
        .collect();
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
    }
}

#[cfg(test)]
mod tests {
    use phoenix_constraints::{AttributeVector, ConstraintSet};
    use phoenix_traces::Job;

    use super::*;
    use crate::config::FederationConfig;
    use crate::fault::FaultPlan;
    use crate::random::RandomScheduler;

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
