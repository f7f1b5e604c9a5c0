//! The pluggable scheduler interface.

use phoenix_traces::JobId;

use crate::context::SimCtx;
use crate::engine::SimState;
use crate::worker::WorkerId;

/// A scheduling policy driven by the simulation engine.
///
/// The engine owns the mechanics (event ordering, probe queues, slot
/// lifecycle, metrics); implementations own the policy (where probes go, in
/// what order queues are served, when queues are reordered or stolen from).
///
/// Hook call order for one event:
///
/// 1. The engine applies the event's mechanical effect (enqueue the probe,
///    free the slot, ...).
/// 2. The matching hook runs and may mutate state through [`SimCtx`].
/// 3. The engine re-runs the dispatch loop on every touched worker, calling
///    [`Scheduler::select_probe`] to pick which queued probe each idle
///    worker serves next.
pub trait Scheduler {
    /// Human-readable policy name (used in reports).
    fn name(&self) -> &str;

    /// A job has arrived; place its probes / tasks.
    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>);

    /// A probe was appended to `worker`'s queue (reorder here if the policy
    /// orders on insertion).
    fn on_probe_enqueued(&mut self, worker: WorkerId, ctx: &mut SimCtx<'_>) {
        let _ = (worker, ctx);
    }

    /// Chooses which queued probe an idle `worker` serves next, as an index
    /// into its queue. `None` leaves the worker idle (no default policy
    /// does this). The default serves the queue head.
    fn select_probe(&mut self, worker: WorkerId, state: &SimState) -> Option<usize> {
        if state.worker(worker).queue_len() == 0 {
            None
        } else {
            Some(0)
        }
    }

    /// A task of `job` finished on `worker` (its true duration is reported
    /// in microseconds). Steal or rebalance here.
    fn on_task_finish(
        &mut self,
        worker: WorkerId,
        job: JobId,
        duration_us: u64,
        ctx: &mut SimCtx<'_>,
    ) {
        let _ = (worker, job, duration_us, ctx);
    }

    /// Every task of `job` completed.
    fn on_job_complete(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        let _ = (job, ctx);
    }

    /// A wakeup requested via [`SimCtx::schedule_wakeup`] fired.
    fn on_wakeup(&mut self, token: u64, ctx: &mut SimCtx<'_>) {
        let _ = (token, ctx);
    }

    /// A probe that was lost in flight, addressed to a dead worker, or
    /// whose task was killed by a crash comes up for re-placement (its
    /// backoff has elapsed). The default re-samples a feasible worker and
    /// resends ([`SimCtx::default_probe_retry`]); override to apply
    /// policy-specific placement to retries.
    fn on_probe_retry(&mut self, probe: crate::probe::Probe, ctx: &mut SimCtx<'_>) {
        ctx.default_probe_retry(probe);
    }

    /// Fault injection: `worker` crashed. The engine has already drained
    /// its queue and killed its running tasks (scheduling retries for
    /// both); override to drop policy-side state tied to the worker
    /// (load caches, stickiness, ...).
    fn on_worker_crash(&mut self, worker: WorkerId, ctx: &mut SimCtx<'_>) {
        let _ = (worker, ctx);
    }

    /// Fault injection: `worker` recovered (idle, empty queue).
    fn on_worker_recover(&mut self, worker: WorkerId, ctx: &mut SimCtx<'_>) {
        let _ = (worker, ctx);
    }
}
