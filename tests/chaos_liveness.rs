//! Chaos liveness: every scheduler survives fault injection without losing
//! work, and faulty runs stay fully deterministic in their seed.
//!
//! This is the end-to-end contract of the fault-injection layer: crashes
//! kill tasks and drop queued probes, probes are lost and delayed in
//! flight, wakeups jitter — and still every task of every non-failed job
//! eventually completes (`lost_tasks == 0`), because each casualty re-enters
//! placement through the retry path and recoveries restore supply.
//!
//! The CI chaos job runs exactly this battery in release mode.

use phoenix::prelude::*;

const ALL_KINDS: [SchedulerKind; 5] = [
    SchedulerKind::Phoenix,
    SchedulerKind::EagleC,
    SchedulerKind::HawkC,
    SchedulerKind::SparrowC,
    SchedulerKind::YaqD,
];

fn spec(kind: SchedulerKind, seed: u64, faults: FaultPlan) -> RunSpec {
    let mut spec = RunSpec::new(TraceProfile::yahoo(), kind);
    spec.nodes = 60;
    spec.gen_nodes = 60;
    spec.jobs = 200;
    spec.gen_util = 0.7;
    spec.seed = seed;
    spec.faults = faults;
    // Debug builds run the chaos battery under the invariant auditor;
    // `assert_alive` checks the report (see golden_traces.rs for the
    // fault-free audited matrix).
    spec.audit = cfg!(debug_assertions);
    spec
}

fn assert_alive(kind: SchedulerKind, seed: u64, profile_name: &str, r: &SimResult) {
    let tag = format!("{} seed={seed} faults={profile_name}", kind.name());
    assert_eq!(r.incomplete_jobs, 0, "{tag}: every job must finish");
    assert_eq!(r.lost_tasks, 0, "{tag}: no task may be lost");
    assert_eq!(
        r.counters.jobs_completed + r.counters.jobs_failed,
        200,
        "{tag}: job conservation"
    );
    assert!(
        r.counters.worker_crashes > 0,
        "{tag}: fault injection must actually fire"
    );
    assert_eq!(
        r.counters.worker_crashes, r.counters.worker_recoveries,
        "{tag}: every crashed worker must recover (no outstanding work left)"
    );
    if let Some(report) = &r.audit {
        assert!(
            report.is_clean(),
            "{tag}: invariant violations under audit:\n{report}"
        );
    }
}

#[test]
fn reference_faults_lose_no_tasks_on_any_scheduler() {
    for kind in ALL_KINDS {
        for seed in [1u64, 2, 3] {
            let r = run_spec(&spec(kind, seed, FaultPlan::reference()));
            assert_alive(kind, seed, "reference", &r);
        }
    }
}

#[test]
fn heavy_faults_lose_no_tasks_on_any_scheduler() {
    for kind in ALL_KINDS {
        for seed in [1u64, 2, 3] {
            let r = run_spec(&spec(kind, seed, FaultPlan::heavy()));
            assert_alive(kind, seed, "heavy", &r);
            // The heavy profile exercises every fault mechanism.
            assert!(
                r.counters.tasks_killed > 0,
                "{} seed={seed}: crashes must kill running tasks",
                kind.name()
            );
            assert!(
                r.counters.probes_lost > 0,
                "{} seed={seed}: probe loss must fire",
                kind.name()
            );
            assert!(
                r.counters.probe_retries > 0,
                "{} seed={seed}: casualties must be retried",
                kind.name()
            );
        }
    }
}

#[test]
fn chaos_runs_are_deterministic_in_their_seed() {
    for kind in ALL_KINDS {
        let s = spec(kind, 7, FaultPlan::reference());
        let a = run_spec(&s);
        let b = run_spec(&s);
        assert_eq!(
            a.digest(),
            b.digest(),
            "{}: same seed, same faults => byte-identical result",
            kind.name()
        );
    }
}

#[test]
fn chaos_determinism_survives_parallel_execution() {
    let specs: Vec<RunSpec> = (1u64..=3)
        .map(|seed| spec(SchedulerKind::Phoenix, seed, FaultPlan::heavy()))
        .collect();
    let parallel = run_many(&specs);
    for (s, got) in specs.iter().zip(&parallel) {
        let sequential = run_spec(s);
        assert_eq!(
            sequential.digest(),
            got.digest(),
            "seed {}: thread interleaving must not leak into results",
            s.seed
        );
    }
}

#[test]
fn killed_work_is_requeued_not_duplicated() {
    // Task conservation under chaos: every completed task was placed
    // exactly once "successfully"; retries and kills only add placements,
    // never completions.
    let r = run_spec(&spec(SchedulerKind::Phoenix, 11, FaultPlan::heavy()));
    let c = &r.counters;
    assert!(c.tasks_killed > 0, "chaos must kill something");
    // Each killed/lost placement is compensated by at least one retry or
    // requeue; completions can never exceed total placement attempts.
    assert!(
        c.tasks_completed <= c.probes_sent + c.bound_placements + c.sbp_continuations,
        "{c:?}"
    );
    assert!(
        c.probe_retries + c.requeued_tasks >= c.tasks_killed,
        "every killed task must re-enter placement: {c:?}"
    );
}
