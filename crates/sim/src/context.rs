//! The mutation interface schedulers use during hooks.

use rand::rngs::StdRng;
use rand::Rng;

use phoenix_constraints::FeasibilityIndex;
use phoenix_traces::JobId;

use crate::config::SimConfig;
use crate::engine::SimState;
use crate::event::{Event, EventQueue};
use crate::jobstate::JobState;
use crate::metrics::Counters;
use crate::probe::{Probe, ProbeId};
use crate::time::{SimDuration, SimTime};
use crate::worker::{Worker, WorkerId};

/// Scheduler-facing view of the simulation: state plus the ability to
/// schedule future events.
///
/// Obtained only inside [`crate::Scheduler`] hooks.
#[derive(Debug)]
pub struct SimCtx<'a> {
    pub(crate) state: &'a mut SimState,
    pub(crate) events: &'a mut EventQueue,
}

impl<'a> SimCtx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.state.now
    }

    /// The full simulation state (read-only).
    pub fn state(&self) -> &SimState {
        self.state
    }

    /// Full mutable access to the simulation state.
    ///
    /// Prefer the targeted accessors ([`SimCtx::worker_mut`],
    /// [`SimCtx::job_mut`], ...); this exists for policy helpers that need
    /// simultaneous access to several parts of the state (queue reordering
    /// reads job estimates while mutating worker queues).
    pub fn state_mut(&mut self) -> &mut SimState {
        self.state
    }

    /// Engine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.state.config
    }

    /// Number of workers in the cluster.
    pub fn num_workers(&self) -> usize {
        self.state.workers.len()
    }

    /// Read access to a worker.
    pub fn worker(&self, id: WorkerId) -> &Worker {
        &self.state.workers[id.index()]
    }

    /// Mutable access to a worker (queue reordering).
    ///
    /// Use this only for operations that preserve the queue's probe
    /// multiset (e.g. [`Worker::promote`]). Adding or removing probes must
    /// go through the ledger-aware wrappers ([`SimCtx::enqueue_front`],
    /// [`SimCtx::remove_probe_by_id`], [`SimCtx::steal_probes_if`]) or the
    /// incremental CRV monitor desyncs.
    pub fn worker_mut(&mut self, id: WorkerId) -> &mut Worker {
        &mut self.state.workers[id.index()]
    }

    /// Read access to a job.
    pub fn job(&self, id: JobId) -> &JobState {
        &self.state.jobs[id.0 as usize]
    }

    /// Mutable access to a job (admission control rewrites
    /// `effective_constraints`).
    pub fn job_mut(&mut self, id: JobId) -> &mut JobState {
        &mut self.state.jobs[id.0 as usize]
    }

    /// All jobs (read-only).
    pub fn jobs(&self) -> &[JobState] {
        &self.state.jobs
    }

    /// The feasibility oracle over the cluster's machines.
    pub fn feasibility(&self) -> &FeasibilityIndex {
        &self.state.feasibility
    }

    /// The simulation's deterministic RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.state.rng
    }

    /// Scheduler-maintained counters.
    pub fn counters_mut(&mut self) -> &mut Counters {
        &mut self.state.metrics.counters
    }

    /// Creates a fresh speculative probe for `job` (not yet sent).
    pub fn new_probe(&mut self, job: JobId) -> Probe {
        Probe {
            id: self.state.next_probe_id(),
            job,
            bound_duration_us: None,
            est_duration_us: self.state.jobs[job.0 as usize].estimated_task_us,
            slowdown: 1.0,
            enqueued_at: self.state.now,
            bypass_count: 0,
            migrations: 0,
            retries: 0,
        }
    }

    /// Creates a fresh *bound* probe carrying a task of `duration_us`
    /// (early binding; not yet sent).
    pub fn new_bound_probe(&mut self, job: JobId, duration_us: u64) -> Probe {
        Probe {
            bound_duration_us: Some(duration_us),
            ..self.new_probe(job)
        }
    }

    /// Sends a probe to a worker; it arrives after the one-way network
    /// delay. Updates the probe/placement counters and traces the
    /// placement choice (this is the single send path every scheduler
    /// goes through).
    pub fn send_probe(&mut self, worker: WorkerId, probe: Probe) {
        if probe.is_bound() {
            self.state.metrics.counters.bound_placements += 1;
        } else {
            self.state.metrics.counters.probes_sent += 1;
        }
        let at_us = self.state.now.as_micros();
        self.state
            .tracer
            .emit(|| crate::trace::TraceRecord::Placement {
                at_us,
                job: probe.job.0,
                worker: worker.0,
                bound: probe.is_bound(),
                slowdown: probe.slowdown,
            });
        self.transfer_probe(worker, probe);
    }

    /// Moves an already-counted probe to another worker (work stealing,
    /// rebalancing); it arrives after the one-way network delay. Does not
    /// touch the send counters — bump [`Counters::stolen_probes`] yourself
    /// if this is a steal.
    ///
    /// Under fault injection the transfer may be lost (the probe re-enters
    /// placement via [`crate::Scheduler::on_probe_retry`] after its
    /// backoff) or delayed by an extra uniform amount. With
    /// [`crate::FaultPlan::none`] neither gate draws randomness.
    pub fn transfer_probe(&mut self, worker: WorkerId, probe: Probe) {
        let state = &mut *self.state;
        let faults = &state.config.faults;
        if faults.probe_loss > 0.0 && state.fault_rng.random_bool(faults.probe_loss) {
            state.metrics.counters.probes_lost += 1;
            let mut lost = probe;
            let backoff = faults.retry_delay(lost.retries);
            lost.retries = lost.retries.saturating_add(1);
            self.events
                .schedule(state.now + backoff, Event::ProbeRetry(lost));
            return;
        }
        let mut delay = state.config.network_delay;
        if faults.probe_delay_prob > 0.0 && state.fault_rng.random_bool(faults.probe_delay_prob) {
            let max = state.config.faults.probe_delay_max.as_micros();
            if max > 0 {
                delay = delay + SimDuration(state.fault_rng.random_range(0..max));
                state.metrics.counters.probes_delayed += 1;
            }
        }
        self.events
            .schedule(state.now + delay, Event::ProbeArrival(worker, probe));
    }

    /// Requests a [`crate::Scheduler::on_wakeup`] callback after `delay`.
    /// Under fault injection the wakeup slips by up to
    /// [`crate::FaultPlan::heartbeat_jitter`].
    pub fn schedule_wakeup(&mut self, delay: SimDuration, token: u64) {
        let state = &mut *self.state;
        let jitter = state.config.faults.heartbeat_jitter.as_micros();
        let slip = if jitter > 0 {
            SimDuration(state.fault_rng.random_range(0..jitter))
        } else {
            SimDuration::ZERO
        };
        self.events
            .schedule(state.now + delay + slip, Event::SchedulerWakeup(token));
    }

    /// Marks a worker as needing a dispatch check once the current hook
    /// returns (the engine does this automatically for probe arrivals and
    /// task completions; call it after manual queue surgery).
    pub fn touch(&mut self, worker: WorkerId) {
        self.state.touched.push(worker);
    }

    /// Fails a job whose hard constraints no worker can satisfy: pending
    /// tasks are cancelled and the job is excluded from latency metrics.
    pub fn fail_job(&mut self, job: JobId) {
        let j = &mut self.state.jobs[job.0 as usize];
        if !j.is_failed() {
            if !j.is_complete() {
                // The job leaves the outstanding set by failing rather
                // than completing.
                self.state.outstanding_jobs -= 1;
            }
            j.fail();
            self.state.metrics.counters.jobs_failed += 1;
        }
    }

    /// Samples up to `k` distinct workers able to satisfy `set`, uniformly
    /// at random (see
    /// [`FeasibilityIndex::sample_feasible`]). Crashed workers are never
    /// returned; when every worker is alive the draws are identical to a
    /// run without the aliveness filter.
    pub fn sample_feasible_workers(
        &mut self,
        set: &phoenix_constraints::ConstraintSet,
        k: usize,
    ) -> Vec<WorkerId> {
        self.sample_feasible_workers_excluding(set, k, |_| false)
    }

    /// Like [`SimCtx::sample_feasible_workers`], skipping workers for which
    /// `exclude` returns true (crashed workers are skipped regardless).
    ///
    /// On a partitioned federated run handling a domain-scoped event this
    /// becomes a three-rung ladder: (1) sample inside the home domain;
    /// (2) if the home domain yields nothing, probe the most promising
    /// remote domain judged from the installed (stale) gossip summaries;
    /// (3) fall back to an unrestricted cluster-wide sample, so liveness
    /// (`lost_tasks == 0`) never depends on summary freshness. With K ≤ 1
    /// the ladder is skipped entirely and the draws are identical to the
    /// centralized engine (the byte-parity rule).
    pub fn sample_feasible_workers_excluding(
        &mut self,
        set: &phoenix_constraints::ConstraintSet,
        k: usize,
        mut exclude: impl FnMut(u32) -> bool,
    ) -> Vec<WorkerId> {
        if let Some(home) = self.state.active_domain {
            let sample = self.sample_in_domain(set, k, home, &mut exclude);
            if !sample.is_empty() {
                if let Some(fed) = self.state.federation_mut() {
                    fed.stats.home_samples += 1;
                }
                return sample;
            }
            let remote = self
                .state
                .federation()
                .and_then(|fed| fed.best_remote_domain(home, set, &self.state.feasibility));
            if let Some(remote) = remote {
                let sample = self.sample_in_domain(set, k, remote, &mut exclude);
                if !sample.is_empty() {
                    if let Some(fed) = self.state.federation_mut() {
                        fed.stats.remote_samples += 1;
                    }
                    return sample;
                }
            }
            if let Some(fed) = self.state.federation_mut() {
                fed.stats.cluster_fallbacks += 1;
            }
        }
        let state = &mut *self.state;
        let started = state.profiler.begin();
        let workers = &state.workers;
        let sample: Vec<WorkerId> = state
            .feasibility
            .sample_feasible(set, k, &mut state.rng, |w| {
                exclude(w) || !workers[w as usize].is_alive()
            })
            .into_iter()
            .map(WorkerId)
            .collect();
        state.profiler.end(crate::ProfileScope::Sample, started);
        sample
    }

    /// One rung of the federated ladder: a feasible-worker sample
    /// restricted to `domain`'s contiguous worker range (plus the caller's
    /// exclusions and the aliveness filter). May return fewer than `k`
    /// workers; empty means the rung failed.
    fn sample_in_domain(
        &mut self,
        set: &phoenix_constraints::ConstraintSet,
        k: usize,
        domain: usize,
        exclude: &mut impl FnMut(u32) -> bool,
    ) -> Vec<WorkerId> {
        let (base, len) = self
            .state
            .federation()
            .expect("domain sampling without federation")
            .ranges()[domain];
        let (lo, hi) = (base as u32, (base + len) as u32);
        let state = &mut *self.state;
        let started = state.profiler.begin();
        let workers = &state.workers;
        let sample: Vec<WorkerId> = state
            .feasibility
            .sample_feasible(set, k, &mut state.rng, |w| {
                w < lo || w >= hi || exclude(w) || !workers[w as usize].is_alive()
            })
            .into_iter()
            .map(WorkerId)
            .collect();
        state.profiler.end(crate::ProfileScope::Sample, started);
        sample
    }

    /// Samples feasible workers *ignoring aliveness* — the last-resort rung
    /// for placements that must target somewhere even mid-outage. Sending
    /// to a dead worker is safe: the engine bounces the probe into the
    /// retry path, so a dead target only costs one backoff. Call this only
    /// on fault-gated paths: it consumes RNG draws, so reaching it with
    /// faults disabled would perturb the deterministic stream.
    pub fn sample_feasible_workers_any(
        &mut self,
        set: &phoenix_constraints::ConstraintSet,
        k: usize,
    ) -> Vec<WorkerId> {
        let state = &mut *self.state;
        let started = state.profiler.begin();
        let sample: Vec<WorkerId> = state
            .feasibility
            .sample_feasible(set, k, &mut state.rng, |_| false)
            .into_iter()
            .map(WorkerId)
            .collect();
        state.profiler.end(crate::ProfileScope::Sample, started);
        sample
    }

    /// Removes the queued probe with the given id from a worker's queue,
    /// if present (used to recall probes). Keeps the CRV ledger in sync.
    pub fn remove_probe_by_id(&mut self, worker: WorkerId, id: ProbeId) -> Option<Probe> {
        let idx = self.state.workers[worker.index()]
            .queue()
            .iter()
            .position(|p| p.id == id)?;
        Some(self.state.remove_probe_at(worker, idx))
    }

    /// Inserts a probe at the *front* of a worker's queue (sticky batch
    /// probing: a continuation of service, not a reordering). Keeps the CRV
    /// ledger in sync.
    pub fn enqueue_front(&mut self, worker: WorkerId, probe: Probe) {
        self.state.enqueue_probe_front(worker, probe);
    }

    /// Removes and returns every queued probe of `worker` matching
    /// `predicate` (work stealing). Keeps the CRV ledger in sync.
    pub fn steal_probes_if(
        &mut self,
        worker: WorkerId,
        predicate: impl FnMut(&Probe) -> bool,
    ) -> Vec<Probe> {
        self.state.steal_probes_if(worker, predicate)
    }

    /// The default fault-recovery action for a probe whose placement was
    /// undone (lost in flight, dead target, or killed by a crash): resend
    /// it to one freshly sampled live feasible worker. Speculative probes
    /// whose job no longer needs them are discarded as redundant; when no
    /// live feasible worker exists right now the probe re-arms its backoff
    /// and tries again later (recovery events guarantee progress).
    pub fn default_probe_retry(&mut self, probe: Probe) {
        let job = &self.state.jobs[probe.job.0 as usize];
        if job.is_failed() || (!probe.is_bound() && !job.has_pending()) {
            if !probe.is_bound() && !job.is_failed() {
                self.state.metrics.counters.redundant_probes += 1;
            }
            return;
        }
        let set = job.effective_constraints.clone();
        match self.sample_feasible_workers(&set, 1).first() {
            Some(&w) => self.resend_probe(w, probe),
            None => self.retry_probe_later(probe),
        }
    }

    /// Resends a retried probe to `worker`, counting the retry. Resets the
    /// probe's bypass counter (it is joining a fresh queue, not being
    /// starved in an old one).
    pub fn resend_probe(&mut self, worker: WorkerId, mut probe: Probe) {
        self.state.metrics.counters.probe_retries += 1;
        probe.bypass_count = 0;
        self.transfer_probe(worker, probe);
    }

    /// Re-arms a retried probe's backoff timer without resending (used
    /// when every feasible worker is currently down). The backoff keeps
    /// growing up to the [`crate::FaultPlan`] cap.
    pub fn retry_probe_later(&mut self, mut probe: Probe) {
        let backoff = self.state.config.faults.retry_delay(probe.retries);
        probe.retries = probe.retries.saturating_add(1);
        self.events
            .schedule(self.state.now + backoff, Event::ProbeRetry(probe));
    }
}
