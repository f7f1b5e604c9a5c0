//! A forwarding [`Scheduler`] decorator that times every hook of the
//! scheduler it wraps, from outside that scheduler.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use phoenix_sim::{Probe, Scheduler, SimCtx, SimState, WorkerId};
use phoenix_traces::JobId;

/// The hooks of [`Scheduler`], in trait declaration order.
#[derive(Debug, Clone, Copy)]
pub enum Hook {
    JobArrival,
    ProbeEnqueued,
    SelectProbe,
    TaskFinish,
    JobComplete,
    Wakeup,
    ProbeRetry,
    WorkerCrash,
    WorkerRecover,
}

impl Hook {
    pub const ALL: [Hook; 9] = [
        Hook::JobArrival,
        Hook::ProbeEnqueued,
        Hook::SelectProbe,
        Hook::TaskFinish,
        Hook::JobComplete,
        Hook::Wakeup,
        Hook::ProbeRetry,
        Hook::WorkerCrash,
        Hook::WorkerRecover,
    ];

    /// The trait method's name.
    pub fn name(self) -> &'static str {
        match self {
            Hook::JobArrival => "on_job_arrival",
            Hook::ProbeEnqueued => "on_probe_enqueued",
            Hook::SelectProbe => "select_probe",
            Hook::TaskFinish => "on_task_finish",
            Hook::JobComplete => "on_job_complete",
            Hook::Wakeup => "on_wakeup",
            Hook::ProbeRetry => "on_probe_retry",
            Hook::WorkerCrash => "on_worker_crash",
            Hook::WorkerRecover => "on_worker_recover",
        }
    }
}

/// Calls and inclusive wall time of one hook.
#[derive(Debug, Clone, Copy, Default)]
pub struct HookTotals {
    pub calls: u64,
    pub ns: u64,
}

/// Per-hook totals, indexed by `Hook as usize`. Shared with the caller
/// because `Simulation::run` consumes the scheduler.
pub type HookTable = Rc<RefCell<[HookTotals; 9]>>;

/// Wraps `inner`, forwarding every hook unchanged and adding its wall time
/// to a [`HookTable`]. It draws no randomness and touches no state, so a
/// decorated run digests identically to an undecorated one.
pub struct TimedScheduler<S> {
    inner: S,
    totals: HookTable,
}

impl<S: Scheduler> TimedScheduler<S> {
    /// The decorator and the table it fills.
    pub fn new(inner: S) -> (Self, HookTable) {
        let totals = HookTable::default();
        (
            TimedScheduler {
                inner,
                totals: Rc::clone(&totals),
            },
            totals,
        )
    }

    fn timed<R>(&mut self, hook: Hook, call: impl FnOnce(&mut S) -> R) -> R {
        let started = Instant::now();
        let out = call(&mut self.inner);
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let t = &mut self.totals.borrow_mut()[hook as usize];
        t.calls += 1;
        t.ns += ns;
        out
    }
}

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        self.timed(Hook::JobArrival, |s| s.on_job_arrival(job, ctx));
    }

    fn on_probe_enqueued(&mut self, worker: WorkerId, ctx: &mut SimCtx<'_>) {
        self.timed(Hook::ProbeEnqueued, |s| s.on_probe_enqueued(worker, ctx));
    }

    fn select_probe(&mut self, worker: WorkerId, state: &SimState) -> Option<usize> {
        self.timed(Hook::SelectProbe, |s| s.select_probe(worker, state))
    }

    fn on_task_finish(
        &mut self,
        worker: WorkerId,
        job: JobId,
        duration_us: u64,
        ctx: &mut SimCtx<'_>,
    ) {
        self.timed(Hook::TaskFinish, |s| {
            s.on_task_finish(worker, job, duration_us, ctx)
        });
    }

    fn on_job_complete(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        self.timed(Hook::JobComplete, |s| s.on_job_complete(job, ctx));
    }

    fn on_wakeup(&mut self, token: u64, ctx: &mut SimCtx<'_>) {
        self.timed(Hook::Wakeup, |s| s.on_wakeup(token, ctx));
    }

    fn on_probe_retry(&mut self, probe: Probe, ctx: &mut SimCtx<'_>) {
        self.timed(Hook::ProbeRetry, |s| s.on_probe_retry(probe, ctx));
    }

    fn on_worker_crash(&mut self, worker: WorkerId, ctx: &mut SimCtx<'_>) {
        self.timed(Hook::WorkerCrash, |s| s.on_worker_crash(worker, ctx));
    }

    fn on_worker_recover(&mut self, worker: WorkerId, ctx: &mut SimCtx<'_>) {
        self.timed(Hook::WorkerRecover, |s| s.on_worker_recover(worker, ctx));
    }
}

#[cfg(test)]
mod tests {
    use phoenix_sim::{FaultPlan, FederationConfig, SimDuration};
    use phoenix_traces::TraceProfile;

    use super::*;
    use crate::workload::Workload;

    fn tiny(faults: FaultPlan, federation: FederationConfig) -> Workload {
        Workload {
            profile: TraceProfile::yahoo(),
            nodes: 60,
            jobs: 150,
            faults,
            federation,
        }
    }

    #[test]
    fn decorated_runs_digest_identically_and_count_every_hook() {
        let cases = [
            (
                "faults off",
                tiny(FaultPlan::none(), FederationConfig::off()),
            ),
            (
                "reference faults",
                tiny(FaultPlan::reference(), FederationConfig::off()),
            ),
            (
                "K=4",
                tiny(
                    FaultPlan::none(),
                    FederationConfig::sharded(4, SimDuration::from_secs(2)),
                ),
            ),
        ];
        for (case, workload) in cases {
            let (inputs, _) = workload.setup();
            let plain = workload.simulate(&inputs, 3, false);
            let timed = workload.simulate(&inputs, 3, true);
            assert_eq!(plain.result.digest(), timed.result.digest(), "{case}");
            let hooks = timed.hooks.expect("a timed run fills the hook table");
            let calls = |hook: Hook| hooks[hook as usize].calls;
            let counters = timed.result.counters;
            assert_eq!(calls(Hook::JobArrival), workload.jobs as u64, "{case}");
            assert_eq!(calls(Hook::TaskFinish), counters.tasks_completed, "{case}");
            assert_eq!(calls(Hook::WorkerCrash), counters.worker_crashes, "{case}");
            if workload.faults.crashes_enabled() {
                assert!(counters.worker_crashes > 0, "{case}: no crash exercised");
            }
        }
    }
}
