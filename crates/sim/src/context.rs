//! The mutation interface schedulers use during hooks.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::Rng;

use phoenix_constraints::{ConstraintSet, SetId, SetTable};
use phoenix_traces::JobId;

use crate::config::{SimConfig, NETWORK_DELAY};
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

    /// Full mutable access to the simulation state, for policy helpers
    /// that need several parts of it at once (queue reordering reads job
    /// sets, then moves probes with [`SimState::promote_probe`]). Workers
    /// change only through `SimState` methods, so this access keeps the CRV
    /// ledger and the busy-worker count exact.
    pub fn state_mut(&mut self) -> &mut SimState {
        self.state
    }

    /// Engine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.state.config
    }

    /// Number of workers in the cluster.
    pub fn num_workers(&self) -> usize {
        self.state.workers().len()
    }

    /// Read access to a worker.
    pub fn worker(&self, id: WorkerId) -> &Worker {
        self.state.worker(id)
    }

    /// Read access to a job in flight (arrived, not finished).
    ///
    /// # Panics
    ///
    /// Panics if the job has finished: a probe may outlive its job, so
    /// code reading the job of a queued or in-flight probe uses
    /// [`SimCtx::effective`], [`SimCtx::estimated_task_us`] and
    /// [`SimCtx::has_pending`], which answer for finished jobs too.
    pub fn job(&self, id: JobId) -> &JobState {
        self.state.jobs.get(id)
    }

    /// The constraint set job `id` is placed against: its own set until
    /// admission relaxes it.
    pub fn effective(&self, id: JobId) -> SetId {
        self.state.jobs.effective(id)
    }

    /// Replaces the set job `id` is placed against (admission relaxed its
    /// soft constraints).
    ///
    /// Relax a job before it creates its first probe
    /// ([`SimCtx::new_probe`], [`SimCtx::new_bound_probe`]). The CRV ledger
    /// takes a queued probe's demand back out under the set its job's
    /// record names when the probe leaves the queue, so that set must be
    /// the one the probe was enqueued with. Setting the job's current set
    /// again is allowed at any time.
    ///
    /// # Panics
    ///
    /// Panics if the set changes after the job created a probe, or after
    /// the job finished.
    pub fn set_effective(&mut self, id: JobId, set: SetId) {
        self.state.jobs.set_effective(id, set);
    }

    /// Scheduler-visible estimated task duration of job `id`,
    /// microseconds.
    pub fn estimated_task_us(&self, id: JobId) -> u64 {
        self.state.jobs.estimated_task_us(id)
    }

    /// Whether job `id` has tasks left to launch (false once it finished).
    pub fn has_pending(&self, id: JobId) -> bool {
        self.state.jobs.has_pending(id)
    }

    /// Takes `job`'s next unlaunched task (crash-requeued ones first),
    /// returning its true duration in microseconds.
    ///
    /// # Panics
    ///
    /// Panics if the job has no pending task.
    pub fn take_task(&mut self, job: JobId) -> u64 {
        self.state.take_task(job)
    }

    /// The run's interned constraint sets.
    pub fn sets(&self) -> &SetTable {
        &self.state.sets
    }

    /// The handle of `set` in the run's table, interning it on first sight.
    pub fn intern(&mut self, set: &ConstraintSet) -> SetId {
        self.state.sets.intern(set)
    }

    /// Number of workers able to satisfy `set` (see [`SetTable::count`]).
    pub fn count_feasible(&mut self, set: SetId) -> usize {
        let state = &mut *self.state;
        state.sets.count(&state.feasibility, set)
    }

    /// Whether `worker` satisfies `set` (see [`SetTable::contains`]).
    pub fn is_feasible(&self, worker: WorkerId, set: SetId) -> bool {
        self.state
            .sets
            .contains(&self.state.feasibility, set, worker.0)
    }

    /// The workers satisfying `set` as a bitset (see [`SetTable::bits`]).
    pub fn feasible_bits(&mut self, set: SetId) -> &[u64] {
        let state = &mut *self.state;
        state.sets.bits(&state.feasibility, set)
    }

    /// The workers satisfying `set` as a sorted id list (see
    /// [`SetTable::ids`]).
    pub fn feasible_ids(&mut self, set: SetId) -> &[u32] {
        let state = &mut *self.state;
        state.sets.ids(&state.feasibility, set)
    }

    /// The simulation's deterministic RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.state.rng
    }

    /// Scheduler-maintained counters.
    pub fn counters_mut(&mut self) -> &mut Counters {
        &mut self.state.counters
    }

    /// Creates a fresh speculative probe for `job` (not yet sent). From
    /// now on the job's effective set is fixed ([`SimCtx::set_effective`]).
    pub fn new_probe(&mut self, job: JobId) -> Probe {
        self.state.jobs.mark_probed(job);
        Probe {
            id: self.state.next_probe_id(),
            job,
            bound_duration_us: None,
            est_duration_us: self.state.jobs.estimated_task_us(job),
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
            self.state.counters.bound_placements += 1;
        } else {
            self.state.counters.probes_sent += 1;
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
            state.counters.probes_lost += 1;
            schedule_retry(self.events, state, probe);
            return;
        }
        let mut delay = NETWORK_DELAY;
        if faults.probe_delay_prob > 0.0 && state.fault_rng.random_bool(faults.probe_delay_prob) {
            let max = state.config.faults.probe_delay_max.as_micros();
            if max > 0 {
                delay = delay + SimDuration(state.fault_rng.random_range(0..max));
                state.counters.probes_delayed += 1;
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
        let j = self.state.jobs.get_mut(job);
        if !j.is_failed() {
            if j.has_pending() {
                self.state.pending_jobs -= 1;
            }
            if !j.is_complete() {
                // The job leaves the outstanding set by failing rather
                // than completing.
                self.state.outstanding_jobs -= 1;
            }
            j.fail();
            self.state.counters.jobs_failed += 1;
            self.state.finishing.push(job);
        }
    }

    /// Samples up to `k` distinct workers able to satisfy `set`, uniformly
    /// at random (see [`SetTable::sample`]). Crashed workers are never
    /// returned; when every worker is alive the draws are identical to a
    /// run without the aliveness filter.
    pub fn sample_feasible_workers(&mut self, set: SetId, k: usize) -> Vec<WorkerId> {
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
    /// centralized engine (the byte-parity rule). A domain rung's
    /// rejection phase still draws over the whole cluster; its exact phase
    /// walks only the domain's words of the set's feasible bitset and
    /// builds no id list.
    pub fn sample_feasible_workers_excluding(
        &mut self,
        set: SetId,
        k: usize,
        mut exclude: impl FnMut(u32) -> bool,
    ) -> Vec<WorkerId> {
        let mut live = |w: u32, worker: &Worker| exclude(w) || !worker.is_alive();
        if let Some(home) = self.state.active_domain {
            let sample = self
                .state
                .sample_span(set, k, self.domain_span(home), &mut live);
            if !sample.is_empty() {
                if let Some(fed) = self.state.federation_mut() {
                    fed.stats.home_samples += 1;
                }
                return sample;
            }
            let state = &mut *self.state;
            let remote = state.federation.as_deref().and_then(|fed| {
                fed.best_remote_domain(home, set, &mut state.sets, &state.feasibility)
            });
            if let Some(remote) = remote {
                let sample = self
                    .state
                    .sample_span(set, k, self.domain_span(remote), &mut live);
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
        let all = 0..self.num_workers() as u32;
        self.state.sample_span(set, k, all, live)
    }

    /// Samples feasible workers *ignoring aliveness* — the last-resort rung
    /// for placements that must target somewhere even mid-outage. Sending
    /// to a dead worker is safe: the engine bounces the probe into the
    /// retry path, so a dead target only costs one backoff. Call this only
    /// on fault-gated paths: it consumes RNG draws, so reaching it with
    /// faults disabled would perturb the deterministic stream.
    pub fn sample_feasible_workers_any(&mut self, set: SetId, k: usize) -> Vec<WorkerId> {
        let all = 0..self.num_workers() as u32;
        self.state.sample_span(set, k, all, |_, _| false)
    }

    /// The worker range of federated domain `domain`.
    fn domain_span(&self, domain: usize) -> Range<u32> {
        let (base, len) = self
            .state
            .federation()
            .expect("domain sampling without federation")
            .ranges()[domain];
        base as u32..(base + len) as u32
    }

    /// Removes the queued probe with the given id from a worker's queue,
    /// if present (used to recall probes). Keeps the CRV ledger in sync.
    pub fn remove_probe_by_id(&mut self, worker: WorkerId, id: ProbeId) -> Option<Probe> {
        let idx = self
            .state
            .worker(worker)
            .queue()
            .iter()
            .position(|p| p.id == id)?;
        Some(self.state.remove_probe_at(worker, idx))
    }

    /// The default fault-recovery action for a probe whose placement was
    /// undone (lost in flight, dead target, or killed by a crash): resend
    /// it to one freshly sampled live feasible worker. Speculative probes
    /// whose job no longer needs them are discarded as redundant; when no
    /// live feasible worker exists right now the probe re-arms its backoff
    /// and tries again later (recovery events guarantee progress).
    pub fn default_probe_retry(&mut self, probe: Probe) {
        let Some(set) = self.retry_set(&probe) else {
            return;
        };
        match self.sample_feasible_workers(set, 1).first() {
            Some(&w) => self.resend_probe(w, probe),
            None => self.retry_probe_later(probe),
        }
    }

    /// The discard check every retry policy starts with. Returns `None`
    /// when `probe` should be dropped: its job failed, or the probe is
    /// speculative and its job has no pending task left (counted as a
    /// redundant probe). Otherwise returns the job's effective set, which
    /// the probe is re-placed against. The job may have finished.
    pub fn retry_set(&mut self, probe: &Probe) -> Option<SetId> {
        let jobs = &self.state.jobs;
        if jobs.is_failed(probe.job) {
            if probe.is_bound() {
                // The dropped probe carried a task that will never run.
                self.state.abandon_task(probe.job);
            }
            return None;
        }
        if !probe.is_bound() && !jobs.has_pending(probe.job) {
            self.state.counters.redundant_probes += 1;
            return None;
        }
        Some(jobs.effective(probe.job))
    }

    /// Resends a retried probe to `worker`, counting the retry. Resets the
    /// probe's bypass counter (it is joining a fresh queue, not being
    /// starved in an old one).
    pub fn resend_probe(&mut self, worker: WorkerId, mut probe: Probe) {
        self.state.counters.probe_retries += 1;
        probe.bypass_count = 0;
        self.transfer_probe(worker, probe);
    }

    /// Re-arms a retried probe's backoff timer without resending (used
    /// when every feasible worker is currently down). The backoff keeps
    /// growing up to the [`crate::FaultPlan`] cap.
    pub fn retry_probe_later(&mut self, probe: Probe) {
        schedule_retry(self.events, self.state, probe);
    }
}

/// Schedules an [`Event::ProbeRetry`] for `probe` after its current
/// backoff and bumps its retry count. The one retry body behind probe
/// loss in flight, crash casualties and [`SimCtx::retry_probe_later`].
pub(crate) fn schedule_retry(events: &mut EventQueue, state: &SimState, mut probe: Probe) {
    let backoff = state.config.faults.retry_delay(probe.retries);
    probe.retries = probe.retries.saturating_add(1);
    events.schedule(state.now + backoff, Event::ProbeRetry(probe));
}
