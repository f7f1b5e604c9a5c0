//! Golden-trace regression tests: fixed-seed snapshots per scheduler.
//!
//! Each test replays a small fixed-seed trace through one scheduler and
//! byte-compares a deterministic JSON rendering of the result against the
//! checked-in snapshot in `tests/golden/<scheduler>.json`. Any behavioural
//! drift — an extra RNG draw, a reordered event, a changed counter — shows
//! up as a diff here long before it is visible in aggregate figures.
//!
//! These runs use the default `SimConfig` (i.e. `FaultPlan::none()`), so
//! together they also pin the acceptance property of the fault-injection
//! layer: with faults disabled the simulator must remain byte-identical to
//! the pre-fault-layer engine.
//!
//! To re-bless after an *intentional* behaviour change:
//!
//! ```text
//! PHOENIX_BLESS=1 cargo test --test golden_traces
//! ```
//!
//! then review the snapshot diff like any other code change.

use phoenix::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Seeds replayed per scheduler (each is a separate snapshot entry).
const SEEDS: [u64; 2] = [42, 7];

fn spec(kind: SchedulerKind, seed: u64) -> RunSpec {
    let mut spec = RunSpec::new(TraceProfile::yahoo(), kind);
    spec.nodes = 60;
    spec.gen_nodes = 60;
    spec.jobs = 200;
    spec.gen_util = 0.7;
    spec.seed = seed;
    // Debug builds replay the goldens under the invariant auditor: the
    // digests must still match the release-blessed snapshots (the auditor
    // is observational), and the report must come back clean.
    spec.audit = cfg!(debug_assertions);
    spec
}

/// Deterministic JSON rendering of the regression-relevant result surface.
fn render(results: &[(u64, SimResult)]) -> String {
    let mut out = String::new();
    let name = &results[0].1.scheduler;
    writeln!(out, "{{").unwrap();
    writeln!(out, "  \"scheduler\": \"{name}\",").unwrap();
    writeln!(out, "  \"runs\": [").unwrap();
    for (i, (seed, r)) in results.iter().enumerate() {
        let c = &r.counters;
        writeln!(out, "    {{").unwrap();
        writeln!(out, "      \"seed\": {seed},").unwrap();
        writeln!(out, "      \"workers\": {},", r.workers).unwrap();
        writeln!(
            out,
            "      \"makespan_us\": {},",
            r.metrics.makespan.as_micros()
        )
        .unwrap();
        writeln!(out, "      \"busy_us\": {},", r.metrics.busy_us).unwrap();
        writeln!(out, "      \"incomplete_jobs\": {},", r.incomplete_jobs).unwrap();
        writeln!(out, "      \"lost_tasks\": {},", r.lost_tasks).unwrap();
        writeln!(out, "      \"digest\": \"{:016x}\",", r.digest()).unwrap();
        writeln!(out, "      \"counters\": {{").unwrap();
        let fields: [(&str, u64); 21] = [
            ("probes_sent", c.probes_sent),
            ("redundant_probes", c.redundant_probes),
            ("bound_placements", c.bound_placements),
            ("tasks_completed", c.tasks_completed),
            ("jobs_completed", c.jobs_completed),
            ("jobs_failed", c.jobs_failed),
            ("relaxed_tasks", c.relaxed_tasks),
            ("crv_reordered_tasks", c.crv_reordered_tasks),
            ("crv_insertions", c.crv_insertions),
            ("srpt_reordered_tasks", c.srpt_reordered_tasks),
            ("stolen_probes", c.stolen_probes),
            ("migrated_probes", c.migrated_probes),
            ("sbp_continuations", c.sbp_continuations),
            ("starvation_suppressions", c.starvation_suppressions),
            ("worker_crashes", c.worker_crashes),
            ("worker_recoveries", c.worker_recoveries),
            ("tasks_killed", c.tasks_killed),
            ("probes_lost", c.probes_lost),
            ("probe_retries", c.probe_retries),
            ("probes_delayed", c.probes_delayed),
            ("requeued_tasks", c.requeued_tasks),
        ];
        for (j, (key, value)) in fields.iter().enumerate() {
            let comma = if j + 1 < fields.len() { "," } else { "" };
            writeln!(out, "        \"{key}\": {value}{comma}").unwrap();
        }
        writeln!(out, "      }}").unwrap();
        let comma = if i + 1 < results.len() { "," } else { "" };
        writeln!(out, "    }}{comma}").unwrap();
    }
    writeln!(out, "  ]").unwrap();
    writeln!(out, "}}").unwrap();
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

fn check(kind: SchedulerKind) {
    let results: Vec<(u64, SimResult)> = SEEDS
        .iter()
        .map(|&seed| (seed, run_spec(&spec(kind, seed))))
        .collect();
    for (seed, r) in &results {
        if let Some(report) = &r.audit {
            assert!(
                report.is_clean(),
                "{} seed {seed}: invariant violations under audit:\n{report}",
                kind.name()
            );
        }
    }
    let got = render(&results);
    let path = golden_path(kind.name());
    if std::env::var_os("PHOENIX_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &got).expect("write golden snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {path:?} ({e}); generate it with \
             `PHOENIX_BLESS=1 cargo test --test golden_traces`"
        )
    });
    assert_eq!(
        got,
        want,
        "{} drifted from its golden snapshot; if the change is intentional, \
         re-bless with `PHOENIX_BLESS=1 cargo test --test golden_traces` and \
         review the diff",
        kind.name()
    );
}

#[test]
fn golden_phoenix() {
    check(SchedulerKind::Phoenix);
}

#[test]
fn golden_eagle_c() {
    check(SchedulerKind::EagleC);
}

#[test]
fn golden_hawk_c() {
    check(SchedulerKind::HawkC);
}

#[test]
fn golden_sparrow_c() {
    check(SchedulerKind::SparrowC);
}

#[test]
fn golden_yaq_d() {
    check(SchedulerKind::YaqD);
}

#[test]
fn golden_mercury_c() {
    check(SchedulerKind::MercuryC);
}

#[test]
fn golden_monolithic_c() {
    check(SchedulerKind::MonolithicC);
}

#[test]
fn golden_choosy_c() {
    check(SchedulerKind::ChoosyC);
}

#[test]
fn golden_phoenix_no_crv() {
    check(SchedulerKind::PhoenixNoCrv);
}

#[test]
fn golden_phoenix_no_admission() {
    check(SchedulerKind::PhoenixNoAdmission);
}

/// The fault-layer zero-cost contract, stated directly: an explicit
/// `FaultPlan::none()` changes nothing about a run (same digest as the
/// default config), and replaying the same seed is byte-identical.
#[test]
fn fault_free_runs_are_byte_identical() {
    let base = spec(SchedulerKind::Phoenix, 42);
    let a = run_spec(&base);
    let b = run_spec(&base.clone().with_faults(FaultPlan::none()));
    assert_eq!(a.digest(), b.digest(), "FaultPlan::none() must be a no-op");
    let c = run_spec(&base);
    assert_eq!(a.digest(), c.digest(), "same seed must replay identically");
}
