//! Integration tests for the observability layer: the tracing and
//! profiling hooks must be zero-cost no-ops when disabled (byte-identical
//! digests), and when enabled must surface the run's decision points as
//! structured records without perturbing the simulation.

use phoenix::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// The golden-trace spec (Phoenix, yahoo profile, seed 42): small enough
/// for a test, contended enough that reorders, insertions, suppressions,
/// steals and migrations all fire (see `tests/golden/phoenix.json`).
fn phoenix_spec() -> RunSpec {
    let mut spec = RunSpec::new(TraceProfile::yahoo(), SchedulerKind::Phoenix);
    spec.nodes = 60;
    spec.gen_nodes = 60;
    spec.jobs = 200;
    spec.gen_util = 0.7;
    spec.seed = 42;
    spec
}

fn temp_trace_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "phoenix-observability-{tag}-{}.jsonl",
        std::process::id()
    ))
}

/// The acceptance property of the whole layer: attaching a trace sink
/// and/or the hot-path profiler changes nothing about the simulated run.
#[test]
fn tracing_and_profiling_leave_the_digest_untouched() {
    let baseline = run_spec(&phoenix_spec());

    let path = temp_trace_path("parity");
    let traced = run_spec(&phoenix_spec().with_trace_out(&path));
    assert_eq!(
        baseline.digest(),
        traced.digest(),
        "attaching a JSONL trace sink must not perturb the run"
    );
    std::fs::remove_file(&path).ok();

    let profiled = run_spec(&phoenix_spec().with_profiling());
    assert_eq!(
        baseline.digest(),
        profiled.digest(),
        "wall-clock profiling must not perturb the run"
    );
    assert!(baseline.profile.is_none(), "profile is opt-in");
    assert!(profiled.profile.is_some(), "profiling was requested");
}

/// The invariant auditor follows the same contract: it observes every
/// event but perturbs nothing, so an audited run is byte-identical to the
/// plain run — and on this pinned spec it must also find nothing.
#[test]
fn auditing_leaves_the_digest_untouched() {
    let mut plain_spec = phoenix_spec();
    plain_spec.audit = false;
    let baseline = run_spec(&plain_spec);
    assert!(baseline.audit.is_none(), "auditing is opt-in");

    let audited = run_spec(&plain_spec.clone().with_audit());
    assert_eq!(
        baseline.digest(),
        audited.digest(),
        "auditing must not perturb the run"
    );
    let report = audited.audit.as_ref().expect("auditing was requested");
    assert!(report.is_clean(), "{report}");
    assert!(report.events_audited > 0, "the auditor saw every event");
    assert!(
        report.placements_checked > 0 && report.ledger_checks > 0,
        "placement and ledger checks ran: {report}"
    );

    // Auditing composes with tracing: the tee keeps feeding the user's
    // sink while the auditor watches the same stream.
    let path = temp_trace_path("audit-tee");
    let both = run_spec(&plain_spec.clone().with_trace_out(&path).with_audit());
    assert_eq!(baseline.digest(), both.digest());
    let body = std::fs::read_to_string(&path).expect("trace file written through the tee");
    std::fs::remove_file(&path).ok();
    assert!(!body.is_empty(), "tee starved the user's sink");
}

/// `--trace-out` output is line-parseable JSONL and covers every record
/// family the contended Phoenix run exercises, with placement records in
/// exact correspondence with the probe counters.
#[test]
fn trace_out_emits_line_parseable_jsonl_with_all_record_families() {
    let path = temp_trace_path("records");
    let result = run_spec(&phoenix_spec().with_trace_out(&path));
    let body = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();

    let mut counts = std::collections::BTreeMap::new();
    let mut last_heartbeat = None;
    for line in body.lines() {
        assert!(
            line.starts_with("{\"type\":\"") && line.ends_with('}'),
            "malformed JSONL line: {line}"
        );
        assert!(
            line.contains("\"at_us\":"),
            "record lacks timestamp: {line}"
        );
        let ty = line["{\"type\":\"".len()..]
            .split('"')
            .next()
            .expect("type tag")
            .to_string();
        if ty == "heartbeat" {
            last_heartbeat = Some(line.to_string());
        }
        *counts.entry(ty).or_insert(0u64) += 1;
    }

    // Placement records correspond one-to-one with counted probe sends.
    let c = &result.counters;
    assert_eq!(
        counts.get("placement").copied().unwrap_or(0),
        c.probes_sent + c.bound_placements,
        "one placement record per probe/bound send"
    );
    // The contended golden spec fires every other family too.
    for family in [
        "reorder",
        "insertion",
        "suppression",
        "steal",
        "migration",
        "heartbeat",
    ] {
        assert!(
            counts.get(family).copied().unwrap_or(0) > 0,
            "expected at least one {family:?} record; got {counts:?}"
        );
    }

    // Heartbeat snapshots carry the monitor's view: per-kind CRV demand
    // and supply, per-worker load, and the queue-length histogram.
    let hb = last_heartbeat.expect("heartbeat record present");
    for field in [
        "\"crv_mode\":",
        "\"crv\":[",
        "\"workers\":[",
        "\"queue_histogram\":[",
    ] {
        assert!(hb.contains(field), "heartbeat lacks {field}: {hb}");
    }
    assert!(
        hb.contains("\"rho\":") && hb.contains("\"expected_wait_us\":"),
        "heartbeat worker loads carry rho and E[W]: {hb}"
    );
}

/// The in-memory ring sink captures records from a directly-driven
/// simulation and respects its capacity bound.
#[test]
fn memory_sink_captures_records_within_capacity() {
    let profile = TraceProfile::yahoo();
    let mut rng = StdRng::seed_from_u64(11);
    let cluster = MachinePopulation::generate(profile.population.clone(), 20, &mut rng);
    let trace = TraceGenerator::new(profile.clone(), 11).generate(50, 20, 0.7);

    let sink = MemorySink::new(64);
    let handle = sink.handle();
    let mut sim = Simulation::new(
        SimConfig::default(),
        FeasibilityIndex::new(cluster.into_machines()),
        &trace,
        Box::new(Phoenix::new(PhoenixConfig::with_cutoff_s(
            profile.short_cutoff_s(),
        ))),
        11,
    );
    sim.set_trace_sink(Box::new(sink));
    let result = sim.run();
    assert_eq!(result.incomplete_jobs, 0);

    let records = MemorySink::records(&handle);
    assert!(!records.is_empty(), "a busy run must emit records");
    assert!(records.len() <= 64, "ring respects its capacity");
    let mut prev = 0;
    for r in &records {
        assert!(r.at_us() >= prev, "records arrive in simulated-time order");
        prev = r.at_us();
        assert!(!r.kind_name().is_empty());
    }
}

/// The profiling report covers the engine hot paths the run exercised.
#[test]
fn profile_report_covers_exercised_hot_paths() {
    let result = run_spec(&phoenix_spec().with_profiling());
    let report = result.profile.as_ref().expect("profiling enabled");
    let dispatch = report.scope(ProfileScope::Dispatch);
    assert!(dispatch.calls > 0, "dispatch runs on every busy worker");
    let refresh = report.scope(ProfileScope::HeartbeatRefresh);
    assert!(refresh.calls > 0, "phoenix refreshes the CRV monitor");
    let steal = report.scope(ProfileScope::Steal);
    assert!(steal.calls > 0, "eagle-style stealing is on in phoenix");
    let rendered = report.to_string();
    for scope in ProfileScope::ALL {
        assert!(
            rendered.contains(scope.name()),
            "table lists {}",
            scope.name()
        );
    }
}
