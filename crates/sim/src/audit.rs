//! Online invariant auditing and a brute-force reference executor.
//!
//! Golden digests detect *change*; this module detects *wrongness*. Two
//! tools live here:
//!
//! * [`InvariantAuditor`] — attached via [`crate::Simulation::enable_audit`],
//!   it re-checks the engine's conservation laws after every handled event:
//!   task conservation (for every live job, `launched + pending ==
//!   submitted` and `launched - completed` equals the work visible on
//!   workers, in queues and in flight), no slot double-booking, a monotone
//!   virtual clock, hard-constraint satisfaction of every placement
//!   (recomputed from the machine attributes, never trusted from the
//!   scheduler), [`crate::CrvLedger`] demand/supply exactness at every scheduler
//!   heartbeat, the starvation-slack bound on queue reorders, and exact
//!   busy-time accounting. It also observes the [`TraceSink`] stream for
//!   record-level sanity (timestamps in order, crash/recover pairing).
//!   Violations are collected, not panicked, so a run reports *all* broken
//!   laws; tests assert [`AuditReport::is_clean`].
//! * [`ReferenceExecutor`] — a deliberately naive O(everything)
//!   re-implementation of the engine's dispatch/queueing semantics for tiny
//!   clusters. It replays the same trace with the same scheduler and must
//!   agree event-for-event (same trace records, same digest) with the real
//!   engine; the differential tests run it against proptest-generated
//!   scenarios.
//!
//! Both tools follow the tracer/profiler discipline: when not enabled they
//! cost one branch per event and change nothing — the digest-parity tests
//! pin that enabling them does not perturb a run either.

use std::fmt;
use std::sync::{Arc, Mutex};

use phoenix_traces::JobId;

use crate::context::SimCtx;
use crate::crvledger::CrvTally;
use crate::engine::{finalize_result, SimState, Simulation};
use crate::event::{Event, EventQueue};
use crate::metrics::SimResult;
use crate::scheduler::Scheduler;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceRecord, TraceSink};
use crate::worker::{RunningTask, WorkerId};

use phoenix_constraints::ConstraintKind;

/// Configuration of the [`InvariantAuditor`].
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Upper bound on any queued probe's `bypass_count`. Every shipped
    /// reorder path guards promotions with `bypass_count < slack`, so no
    /// probe can be overtaken more than `slack` times; `None` disables the
    /// check (for harnesses driving [`crate::Worker::promote`] directly).
    pub starvation_slack: Option<u32>,
    /// Re-derive the [`crate::CrvLedger`] from scratch at every
    /// scheduler wakeup (heartbeat) and compare all of its counters.
    pub check_crv_ledger: bool,
    /// Number of violation messages retained verbatim in the report (the
    /// total count is always exact).
    pub max_recorded: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            // BaselineConfig::default().slack_threshold — every shipped
            // scheduler config uses 5.
            starvation_slack: Some(5),
            check_crv_ledger: true,
            max_recorded: 16,
        }
    }
}

/// Outcome of an audited run, returned in [`SimResult::audit`].
///
/// Excluded from [`SimResult::digest`]: auditing observes, it never
/// participates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Events after which the conservation laws were re-checked.
    pub events_audited: u64,
    /// Task launches whose hard constraints were re-verified.
    pub placements_checked: u64,
    /// Heartbeats at which the CRV ledger was re-derived and compared.
    pub ledger_checks: u64,
    /// Total invariant violations detected.
    pub violations: u64,
    /// The first [`AuditConfig::max_recorded`] violation messages.
    pub first_violations: Vec<String>,
}

impl AuditReport {
    /// Whether the run satisfied every audited invariant.
    pub fn is_clean(&self) -> bool {
        self.violations == 0
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit: {} violations over {} events ({} placements, {} ledger checks)",
            self.violations, self.events_audited, self.placements_checked, self.ledger_checks
        )?;
        for v in &self.first_violations {
            write!(f, "\n  - {v}")?;
        }
        Ok(())
    }
}

/// Trace-stream observations shared between the auditor and its sink.
#[derive(Debug, Default)]
struct StreamState {
    last_at_us: u64,
    /// Workers the record stream says are down.
    down: Vec<u32>,
    violations: Vec<String>,
}

impl StreamState {
    fn violation(&mut self, msg: String) {
        self.violations.push(msg);
    }
}

/// A [`TraceSink`] that checks record-stream sanity for the auditor:
/// timestamps must be non-decreasing and crash/recover records must pair up
/// (no double crash, no recovery of a live worker).
struct StreamObserver {
    shared: Arc<Mutex<StreamState>>,
}

impl TraceSink for StreamObserver {
    fn record(&mut self, record: &TraceRecord) {
        let mut s = self.shared.lock().expect("audit stream not poisoned");
        let at = record.at_us();
        if at < s.last_at_us {
            let last = s.last_at_us;
            s.violation(format!(
                "trace stream out of order: {} at {at} µs after {last} µs",
                record.kind_name()
            ));
        }
        s.last_at_us = at;
        match *record {
            TraceRecord::Crash { worker, .. } => {
                if s.down.contains(&worker) {
                    s.violation(format!("worker {worker} crashed twice without recovering"));
                } else {
                    s.down.push(worker);
                }
            }
            TraceRecord::Recover { worker, .. } => {
                if let Some(i) = s.down.iter().position(|&w| w == worker) {
                    s.down.swap_remove(i);
                } else {
                    s.violation(format!("worker {worker} recovered without a crash"));
                }
            }
            _ => {}
        }
    }
}

/// Tee splitting one record stream into two sinks (the user's sink and the
/// auditor's [`StreamObserver`]).
pub(crate) struct TeeSink {
    pub(crate) first: Box<dyn TraceSink>,
    pub(crate) second: Box<dyn TraceSink>,
}

impl TraceSink for TeeSink {
    fn record(&mut self, record: &TraceRecord) {
        self.first.record(record);
        self.second.record(record);
    }

    fn flush(&mut self) {
        self.first.flush();
        self.second.flush();
    }
}

/// Online checker of the engine's conservation laws (see module docs).
///
/// Attach with [`crate::Simulation::enable_audit`]; the report lands in
/// [`SimResult::audit`].
#[derive(Debug)]
pub struct InvariantAuditor {
    config: AuditConfig,
    report: AuditReport,
    last_now: SimTime,
    stream: Arc<Mutex<StreamState>>,
    // Scratch buffers reused across events (the auditor runs after every
    // event; per-event allocation would dominate debug-build runs).
    inflight: Vec<i64>,
    seqs: Vec<u64>,
}

impl InvariantAuditor {
    /// Creates an auditor with the given configuration.
    pub fn new(config: AuditConfig) -> Self {
        InvariantAuditor {
            config,
            report: AuditReport::default(),
            last_now: SimTime::ZERO,
            stream: Arc::new(Mutex::new(StreamState::default())),
            inflight: Vec::new(),
            seqs: Vec::new(),
        }
    }

    /// The sink the engine tees trace records into for stream-level checks.
    pub(crate) fn stream_observer(&self) -> Box<dyn TraceSink> {
        Box::new(StreamObserver {
            shared: Arc::clone(&self.stream),
        })
    }

    fn violation(&mut self, at: SimTime, msg: impl fmt::Display) {
        self.report.violations += 1;
        if self.report.first_violations.len() < self.config.max_recorded {
            self.report
                .first_violations
                .push(format!("t={}µs: {msg}", at.as_micros()));
        }
    }

    /// Re-checks every per-event law after `handle` + dispatch settled.
    /// `heartbeat` marks [`Event::SchedulerWakeup`] events, where the CRV
    /// ledger is additionally re-derived from scratch.
    pub(crate) fn after_event(&mut self, heartbeat: bool, state: &SimState, events: &EventQueue) {
        self.report.events_audited += 1;
        if state.now < self.last_now {
            self.violation(
                state.now,
                format!(
                    "virtual clock ran backwards ({} µs after {} µs)",
                    state.now.as_micros(),
                    self.last_now.as_micros()
                ),
            );
        }
        self.last_now = state.now;
        self.check_conservation(state, events);
        if heartbeat && self.config.check_crv_ledger {
            self.check_crv_ledger(state);
        }
    }

    /// Worker-side structure, busy-time accounting and per-job task
    /// conservation — the "submitted == finished + queued + running + in
    /// flight" law, checked after every event.
    fn check_conservation(&mut self, state: &SimState, events: &EventQueue) {
        let now = state.now;
        self.inflight.clear();
        self.inflight.resize(state.jobs.len(), 0);
        self.seqs.clear();
        let mut busy_sum: u64 = 0;

        for (i, w) in state.workers.iter().enumerate() {
            busy_sum += w.busy_us();
            let running = w.running_tasks();
            if running.len() > w.slots() {
                self.violation(
                    now,
                    format!(
                        "worker {i} double-booked: {} tasks on {} slots",
                        running.len(),
                        w.slots()
                    ),
                );
            }
            if !w.is_alive() && (!running.is_empty() || w.queue_len() > 0) {
                self.violation(
                    now,
                    format!(
                        "dead worker {i} holds work ({} running, {} queued)",
                        running.len(),
                        w.queue_len()
                    ),
                );
            }
            for t in running {
                self.seqs.push(t.seq);
                if let Some(slot) = self.inflight.get_mut(t.job.0 as usize) {
                    *slot += 1;
                }
                if t.finish_at < now {
                    self.violation(
                        now,
                        format!(
                            "worker {i} runs a task past its finish time ({} µs)",
                            t.finish_at.as_micros()
                        ),
                    );
                }
            }
            for p in w.queue() {
                if p.is_bound() {
                    if let Some(slot) = self.inflight.get_mut(p.job.0 as usize) {
                        *slot += 1;
                    }
                }
                if let Some(slack) = self.config.starvation_slack {
                    if p.bypass_count > slack {
                        self.violation(
                            now,
                            format!(
                                "starvation slack exceeded on worker {i}: {} bypassed {} times \
                                 (slack {slack})",
                                p.id, p.bypass_count
                            ),
                        );
                    }
                }
            }
        }

        self.seqs.sort_unstable();
        if self.seqs.windows(2).any(|w| w[0] == w[1]) {
            self.violation(now, "a task sequence number runs on two slots at once");
        }
        if busy_sum != state.metrics.busy_us {
            self.violation(
                now,
                format!(
                    "busy-time ledger desynced: metrics {} µs vs Σ workers {} µs",
                    state.metrics.busy_us, busy_sum
                ),
            );
        }

        // Bound probes in flight (travelling to a worker or awaiting a
        // retry) carry launched-but-not-running work.
        for ev in events.pending_events() {
            if let Event::ProbeArrival(_, p) | Event::ProbeRetry(p) = ev {
                if p.is_bound() {
                    if let Some(slot) = self.inflight.get_mut(p.job.0 as usize) {
                        *slot += 1;
                    }
                }
            }
        }

        let mut completed_total: u64 = 0;
        let mut complete_jobs: u64 = 0;
        for (i, job) in state.jobs.iter().enumerate() {
            completed_total += job.completed_tasks() as u64;
            if job.is_complete() {
                complete_jobs += 1;
            }
            if job.completed_tasks() > job.launched {
                self.violation(
                    now,
                    format!(
                        "job {i} completed {} tasks but launched only {}",
                        job.completed_tasks(),
                        job.launched
                    ),
                );
            }
            if job.is_failed() {
                // A failed job's pending pool is cancelled and its bound
                // casualties are dropped without retry; conservation holds
                // only for live jobs.
                continue;
            }
            if job.launched + job.pending_tasks() != job.num_tasks() {
                self.violation(
                    now,
                    format!(
                        "job {i} leaks tasks: launched {} + pending {} != submitted {}",
                        job.launched,
                        job.pending_tasks(),
                        job.num_tasks()
                    ),
                );
            }
            let visible = self.inflight[i];
            let expected = job.launched as i64 - job.completed_tasks() as i64;
            if visible != expected {
                self.violation(
                    now,
                    format!(
                        "job {i} in-flight mismatch: launched-completed {expected} vs \
                         {visible} visible on workers/queues/events"
                    ),
                );
            }
        }
        if state.metrics.counters.tasks_completed != completed_total {
            self.violation(
                now,
                format!(
                    "tasks_completed counter {} != Σ per-job completions {}",
                    state.metrics.counters.tasks_completed, completed_total
                ),
            );
        }
        if state.metrics.counters.jobs_completed != complete_jobs {
            self.violation(
                now,
                format!(
                    "jobs_completed counter {} != complete jobs {}",
                    state.metrics.counters.jobs_completed, complete_jobs
                ),
            );
        }
    }

    /// Re-derives the CRV ledger from the queues and slots and compares
    /// every counter of the cluster tally, and of each domain tally on a
    /// partitioned run, against the live one.
    fn check_crv_ledger(&mut self, state: &SimState) {
        self.report.ledger_checks += 1;
        let fresh = state.derive_crv_ledger();
        let live = state.crv_ledger();
        self.compare_tallies(state.now, "cluster", live.cluster(), fresh.cluster());
        for d in 0..live.domains() {
            let scope = format!("domain {d}");
            self.compare_tallies(state.now, &scope, live.domain(d), fresh.domain(d));
        }
    }

    fn compare_tallies(&mut self, now: SimTime, scope: &str, live: CrvTally, fresh: CrvTally) {
        if live.queued_probes() != fresh.queued_probes()
            || live.constrained_probes() != fresh.constrained_probes()
            || live.idle_workers() != fresh.idle_workers()
            || live.distinct_instances() != fresh.distinct_instances()
        {
            self.violation(
                now,
                format!(
                    "CRV ledger {scope} totals desynced: queued {}/{}, constrained {}/{}, \
                     idle {}/{}, instances {}/{} (live/rederived)",
                    live.queued_probes(),
                    fresh.queued_probes(),
                    live.constrained_probes(),
                    fresh.constrained_probes(),
                    live.idle_workers(),
                    fresh.idle_workers(),
                    live.distinct_instances(),
                    fresh.distinct_instances()
                ),
            );
        }
        for kind in ConstraintKind::ALL {
            if live.demand(kind) != fresh.demand(kind)
                || live.idle_supply(kind) != fresh.idle_supply(kind)
            {
                self.violation(
                    now,
                    format!(
                        "CRV ledger {scope} desynced on {kind}: demand {}/{}, supply {}/{} \
                         (live/rederived)",
                        live.demand(kind),
                        fresh.demand(kind),
                        live.idle_supply(kind),
                        fresh.idle_supply(kind)
                    ),
                );
            }
        }
    }

    /// Re-verifies a task launch against the job's *hard* constraints,
    /// recomputed from the machine attributes (the scheduler's own
    /// feasibility reasoning is never trusted), and checks admission never
    /// dropped a hard constraint from the effective set.
    pub(crate) fn check_placement(&mut self, state: &SimState, worker: WorkerId, job: JobId) {
        self.report.placements_checked += 1;
        let now = state.now;
        let j = &state.jobs[job.0 as usize];
        let machine = &state.feasibility.machines()[worker.index()];
        if !j.constraints.hard_satisfied_by(machine) {
            self.violation(
                now,
                format!(
                    "placement violates hard constraints: job {} launched on {worker}",
                    job.0
                ),
            );
        }
        if j.constraints.expr().is_some() {
            // Expression sets: the flat view is a conservative projection,
            // not a hard-constraint inventory, so containment is checked
            // semantically instead — the machine must also satisfy the hard
            // relaxation of whatever admission negotiated (e.g. the chosen
            // `Any` branch).
            if !state.sets.get(j.effective()).hard_satisfied_by(machine) {
                self.violation(
                    now,
                    format!(
                        "placement violates negotiated expression branch: job {} on {worker}",
                        job.0
                    ),
                );
            }
            return;
        }
        let effective = state.sets.get(j.effective());
        for hard in j.constraints.hard_constraints() {
            if !effective.iter().any(|c| c == hard) {
                self.violation(
                    now,
                    format!(
                        "admission dropped a hard constraint of job {}: {hard:?}",
                        job.0
                    ),
                );
            }
        }
    }

    /// Merges the trace-stream observations and returns the final report.
    pub(crate) fn finish(mut self) -> AuditReport {
        let stream = std::mem::take(&mut *self.stream.lock().expect("audit stream not poisoned"));
        for msg in stream.violations {
            self.report.violations += 1;
            if self.report.first_violations.len() < self.config.max_recorded {
                self.report.first_violations.push(format!("stream: {msg}"));
            }
        }
        self.report
    }
}

/// A deliberately naive re-implementation of the engine for tiny runs.
///
/// Where the real engine keeps a binary heap of events, an incremental CRV
/// ledger and touched-worker batching, the reference executor scans a flat
/// `Vec` for the earliest event on every step and re-walks everything it
/// needs — O(everything), nothing shared, nothing cached. Both executors
/// drive the *same* scheduler, state-mutation wrappers and accounting, so
/// a divergence pins a bug in the engine's event ordering or dispatch loop
/// rather than in policy code.
///
/// Supports fault-free runs only (the fault layer's RNG interleaving is an
/// engine-internal detail with no independent spec to check against), and
/// refuses clusters larger than [`ReferenceExecutor::MAX_WORKERS`] /
/// [`ReferenceExecutor::MAX_JOBS`].
#[derive(Debug)]
pub struct ReferenceExecutor;

impl ReferenceExecutor {
    /// Largest cluster the oracle accepts.
    pub const MAX_WORKERS: usize = 16;
    /// Largest trace the oracle accepts.
    pub const MAX_JOBS: usize = 64;

    /// Replays `sim` to completion under the naive semantics.
    ///
    /// # Panics
    ///
    /// Panics if the simulation exceeds the size caps or has fault
    /// injection enabled.
    pub fn run(sim: Simulation) -> SimResult {
        let (mut state, mut queue, mut scheduler) = sim.into_parts();
        assert!(
            state.workers.len() <= Self::MAX_WORKERS,
            "reference executor is O(everything): at most {} workers",
            Self::MAX_WORKERS
        );
        assert!(
            state.jobs.len() <= Self::MAX_JOBS,
            "reference executor is O(everything): at most {} jobs",
            Self::MAX_JOBS
        );
        assert!(
            !state.config.faults.is_active(),
            "reference executor supports fault-free runs only"
        );
        assert!(
            !state.config.federation.is_partitioned(),
            "reference executor supports centralized (K <= 1) runs only"
        );

        // The naive future-event list: a flat vector, linearly scanned for
        // the minimum (time, seq) on every step. Events scheduled by hooks
        // land in the real `EventQueue` (hooks only know `SimCtx`) and are
        // absorbed — unordered — after each step; the engine-assigned
        // sequence numbers come along, so the two executors resolve
        // same-time ties identically by construction.
        let mut pending: Vec<(SimTime, u64, Event)> = queue.drain_unordered();
        let mut next_task_seq: u64 = 0;

        while let Some(pos) = pending
            .iter()
            .enumerate()
            .min_by_key(|(_, (t, s, _))| (*t, *s))
            .map(|(i, _)| i)
        {
            let (t, _seq, event) = pending.remove(pos);
            assert!(t >= state.now, "time must not go backwards");
            state.now = t;
            Self::handle(&mut state, &mut queue, scheduler.as_mut(), event);
            while let Some(worker) = state.touched.pop() {
                Self::dispatch(
                    &mut state,
                    &mut queue,
                    scheduler.as_mut(),
                    &mut next_task_seq,
                    worker,
                );
            }
            pending.extend(queue.drain_unordered());
        }

        finalize_result(state, &queue, scheduler.name().to_string(), None)
    }

    /// Mirror of the engine's `handle`, minus the fault arms.
    fn handle(
        state: &mut SimState,
        events: &mut EventQueue,
        scheduler: &mut dyn Scheduler,
        event: Event,
    ) {
        match event {
            Event::JobArrival(index) => {
                let id = state.arrive(events, index);
                let mut ctx = SimCtx { state, events };
                scheduler.on_job_arrival(id, &mut ctx);
            }
            Event::ProbeArrival(worker, mut probe) => {
                assert!(
                    state.workers[worker.index()].is_alive(),
                    "dead worker in a fault-free run"
                );
                probe.enqueued_at = state.now;
                state.enqueue_probe(worker, probe);
                let mut ctx = SimCtx { state, events };
                scheduler.on_probe_enqueued(worker, &mut ctx);
                state.touched.push(worker);
            }
            Event::TaskFinish(worker, seq) => {
                if !state.workers[worker.index()].has_running_seq(seq) {
                    return;
                }
                let task = state.finish_task_on(worker, seq);
                state.metrics.counters.tasks_completed += 1;
                let job_idx = task.job.0 as usize;
                let done = state.jobs[job_idx].complete_task(state.now);
                if state.now > state.metrics.makespan {
                    state.metrics.makespan = state.now;
                }
                if done {
                    if !state.jobs[job_idx].is_failed() {
                        state.outstanding_jobs -= 1;
                    }
                    state.metrics.record_job_completion(&state.jobs[job_idx]);
                    let mut ctx = SimCtx { state, events };
                    scheduler.on_job_complete(task.job, &mut ctx);
                }
                let mut ctx = SimCtx { state, events };
                scheduler.on_task_finish(worker, task.job, task.duration_us, &mut ctx);
                state.touched.push(worker);
            }
            Event::SchedulerWakeup(token) => {
                let mut ctx = SimCtx { state, events };
                scheduler.on_wakeup(token, &mut ctx);
            }
            Event::ProbeRetry(probe) => {
                let mut ctx = SimCtx { state, events };
                scheduler.on_probe_retry(probe, &mut ctx);
            }
            Event::WorkerCrash(_) | Event::WorkerRecover(_) => {
                unreachable!("fault events in a fault-free reference run")
            }
            Event::GossipPublish | Event::GossipDeliver => {
                unreachable!("gossip events in a centralized (K <= 1) reference run")
            }
        }
    }

    /// Mirror of the engine's `try_dispatch`.
    fn dispatch(
        state: &mut SimState,
        events: &mut EventQueue,
        scheduler: &mut dyn Scheduler,
        next_task_seq: &mut u64,
        worker: WorkerId,
    ) {
        loop {
            let w = &state.workers[worker.index()];
            if !w.is_alive() || !w.has_free_slot() || w.queue_len() == 0 {
                return;
            }
            let Some(idx) = scheduler.select_probe(worker, state) else {
                return;
            };
            let probe = state.remove_probe_at(worker, idx);
            let job_idx = probe.job.0 as usize;
            let (raw_duration_us, fetch_delay) = match probe.bound_duration_us {
                Some(d) => (d, SimDuration::ZERO),
                None => {
                    if !state.jobs[job_idx].has_pending() {
                        state.metrics.counters.redundant_probes += 1;
                        continue;
                    }
                    let d = state.jobs[job_idx].take_task();
                    (d, state.config.rtt())
                }
            };
            let clock_factor = if state.config.scale_duration_by_clock {
                let clock = state.feasibility.machines()[worker.index()].cpu_clock_mhz;
                f64::from(state.config.reference_clock_mhz) / f64::from(clock.max(1))
            } else {
                1.0
            };
            // Mirrors the engine's dispatch clamp: sub-microsecond tasks
            // store the same 1 us duration their finish event implies.
            let duration_us = (((raw_duration_us as f64) * probe.slowdown.max(1.0) * clock_factor)
                .round() as u64)
                .max(1);
            if probe.slowdown > 1.0 {
                state.metrics.counters.relaxed_tasks += 1;
            }
            let start = state.now + fetch_delay;
            let finish = start + SimDuration(duration_us);
            let now = state.now;
            {
                let SimState { jobs, metrics, .. } = state;
                let job = &mut jobs[job_idx];
                let wait = start.since(job.arrival);
                job.wait_sum_us += wait.as_micros();
                metrics.record_task_wait(job, wait, now);
            }
            let seq = *next_task_seq;
            *next_task_seq += 1;
            state.start_task_on(
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
            state.metrics.busy_us += finish.since(now).as_micros();
            events.schedule(finish, Event::TaskFinish(worker, seq));
            if state.workers[worker.index()].has_free_slot() {
                continue;
            }
            return;
        }
    }
}

/// Describes the first position at which two trace-record streams diverge,
/// or `None` if they are identical. Used by the differential tests to turn
/// "the digests differ" into an actionable event-level diff.
pub fn first_trace_divergence(real: &[TraceRecord], reference: &[TraceRecord]) -> Option<String> {
    for (i, (a, b)) in real.iter().zip(reference.iter()).enumerate() {
        if a != b {
            return Some(format!("record {i}: engine {a:?} vs reference {b:?}"));
        }
    }
    if real.len() != reference.len() {
        return Some(format!(
            "stream lengths differ: engine {} vs reference {} records",
            real.len(),
            reference.len()
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    #[test]
    fn default_config_matches_shipped_slack() {
        let c = AuditConfig::default();
        assert_eq!(c.starvation_slack, Some(5));
        assert!(c.check_crv_ledger);
    }

    #[test]
    fn clean_report_displays_summary() {
        let r = AuditReport::default();
        assert!(r.is_clean());
        assert!(r.to_string().contains("0 violations"));
    }

    #[test]
    fn stream_observer_flags_disorder_and_unpaired_crashes() {
        let auditor = InvariantAuditor::new(AuditConfig::default());
        let mut tracer = Tracer::with_sink(auditor.stream_observer());
        tracer.emit_record(TraceRecord::Recover {
            at_us: 10,
            worker: 0,
        });
        tracer.emit_record(TraceRecord::Crash {
            at_us: 5,
            worker: 1,
            killed: 0,
            dropped: 0,
        });
        tracer.emit_record(TraceRecord::Crash {
            at_us: 6,
            worker: 1,
            killed: 0,
            dropped: 0,
        });
        let report = auditor.finish();
        assert_eq!(report.violations, 3, "{report}");
        assert!(report.to_string().contains("recovered without a crash"));
        assert!(report.to_string().contains("crashed twice"));
        assert!(report.to_string().contains("out of order"));
    }

    #[test]
    fn divergence_reports_first_mismatch() {
        let a = [TraceRecord::Suppression {
            at_us: 1,
            worker: 0,
        }];
        let b = [TraceRecord::Suppression {
            at_us: 1,
            worker: 1,
        }];
        assert!(first_trace_divergence(&a, &a).is_none());
        let d = first_trace_divergence(&a, &b).expect("differs");
        assert!(d.starts_with("record 0"), "{d}");
        let d = first_trace_divergence(&a, &[]).expect("length differs");
        assert!(d.contains("lengths differ"), "{d}");
    }
}
