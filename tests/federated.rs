//! Federated-engine acceptance tests.
//!
//! The load-bearing contract is the K=1 parity rule: a single-domain
//! federation is federation off, so it must be **byte-identical** to the
//! centralized engine — same digest *and* the same event trace, for every
//! golden scheduler and seed. On top of that, partitioned runs (K > 1)
//! must stay fully deterministic in their seed, and federation must not
//! cost liveness: chaos runs with domains enabled still finish every task.
//!
//! The utilization regression rides along here because it needs the same
//! fault machinery: crashed-worker downtime must no longer be counted as
//! available capacity.

use phoenix::prelude::*;

const GOLDEN_KINDS: [SchedulerKind; 5] = [
    SchedulerKind::Phoenix,
    SchedulerKind::EagleC,
    SchedulerKind::HawkC,
    SchedulerKind::SparrowC,
    SchedulerKind::YaqD,
];

const SEEDS: [u64; 3] = [42, 7, 3];

fn spec(kind: SchedulerKind, seed: u64) -> RunSpec {
    let mut spec = RunSpec::new(TraceProfile::yahoo(), kind);
    spec.nodes = 60;
    spec.gen_nodes = 60;
    spec.jobs = 200;
    spec.gen_util = 0.7;
    spec.seed = seed;
    spec.record_task_waits = false;
    spec
}

/// Runs a spec with a memory trace sink attached, returning the result and
/// the captured event records.
fn run_traced(spec: &RunSpec) -> (SimResult, Vec<TraceRecord>) {
    use phoenix::constraints::{FeasibilityIndex, MachinePopulation};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // Mirrors `run_spec_timed`'s generation pipeline; both sides of a
    // parity comparison go through this one helper, so only the
    // federation config differs.
    let mut rng = StdRng::seed_from_u64(spec.seed.wrapping_mul(0x9E37_79B9).wrapping_add(17));
    let cluster =
        MachinePopulation::generate(spec.profile.population.clone(), spec.nodes, &mut rng);
    let trace = TraceGenerator::new(spec.profile.clone(), spec.gen_seed.unwrap_or(spec.seed))
        .generate(spec.jobs, spec.gen_nodes, spec.gen_util);
    let config = SimConfig {
        record_task_waits: spec.record_task_waits,
        faults: spec.faults,
        federation: spec.federation,
        ..SimConfig::default()
    };
    let index = FeasibilityIndex::new(cluster.into_machines());
    let cutoff = spec.profile.short_cutoff_s();
    let mut sim = Simulation::new(
        config,
        index,
        &trace,
        spec.scheduler.build(cutoff),
        spec.seed,
    );
    let sink = MemorySink::new(1 << 16);
    let handle = sink.handle();
    sim.set_trace_sink(Box::new(sink));
    let result = sim.run();
    (result, MemorySink::records(&handle))
}

/// The parity anchor: K=1 / staleness=0 federation is the centralized
/// engine bit for bit — digest and full event trace — across every golden
/// scheduler and seed.
#[test]
fn k1_zero_staleness_matches_centralized_exactly() {
    for kind in GOLDEN_KINDS {
        for seed in SEEDS {
            let base = spec(kind, seed);
            let federated = base
                .clone()
                .with_federation(FederationConfig::sharded(1, SimDuration::ZERO));
            let (central, central_records) = run_traced(&base);
            let (fed, fed_records) = run_traced(&federated);
            let tag = format!("{} seed={seed}", kind.name());
            if let Some(diff) = first_trace_divergence(&fed_records, &central_records) {
                panic!("{tag}: K=1 federation diverged from centralized run\n{diff}");
            }
            assert_eq!(fed.digest(), central.digest(), "{tag}: digest parity");
            // K=1 is federation off: no federation state, hence no stats.
            assert!(fed.federation.is_none(), "{tag}: K=1 means off");
            assert!(central.federation.is_none(), "{tag}: off means off");
        }
    }
}

/// Partitioned runs are fully deterministic in their seed: two identical
/// K=4 invocations agree on the digest and the whole event trace, and the
/// gossip plane actually ran.
#[test]
fn partitioned_runs_replay_byte_identically() {
    for staleness in [SimDuration::ZERO, SimDuration::from_millis(200)] {
        let federated = spec(SchedulerKind::Phoenix, 42)
            .with_federation(FederationConfig::sharded(4, staleness));
        let (a, a_records) = run_traced(&federated);
        let (b, b_records) = run_traced(&federated);
        let tag = format!("K=4 staleness={}us", staleness.as_micros());
        if let Some(diff) = first_trace_divergence(&a_records, &b_records) {
            panic!("{tag}: same spec diverged across runs\n{diff}");
        }
        assert_eq!(a.digest(), b.digest(), "{tag}: digest reproducibility");
        assert_eq!(a.incomplete_jobs, 0, "{tag}: every job must finish");
        assert_eq!(a.lost_tasks, 0, "{tag}: no task may be lost");
        let stats = a.federation.expect("federation stats at K=4");
        assert!(stats.gossip_rounds > 0, "{tag}: gossip must fire");
        assert!(stats.home_samples > 0, "{tag}: home domain must serve");
        if staleness > SimDuration::ZERO {
            assert!(
                stats.batches_delivered > 0,
                "{tag}: delayed batches must deliver"
            );
        }
    }
}

/// Federation does not cost liveness under chaos: with domains enabled and
/// heavy fault injection, every task of every non-failed job still
/// completes, and crashed supply leaves the books (stats stay coherent).
/// Debug builds also run the invariant auditor, which re-derives every
/// domain's ledger tally at each heartbeat.
#[test]
fn federated_chaos_loses_nothing() {
    for kind in GOLDEN_KINDS {
        for (k, faults) in [(4usize, FaultPlan::reference()), (16, FaultPlan::heavy())] {
            let mut s = spec(kind, 7)
                .with_faults(faults)
                .with_federation(FederationConfig::sharded(k, SimDuration::from_millis(200)));
            s.audit = cfg!(debug_assertions);
            let r = run_spec(&s);
            let tag = format!("{} K={k}", kind.name());
            if let Some(report) = &r.audit {
                assert!(
                    report.is_clean(),
                    "{tag}: invariant violations under audit:\n{report}"
                );
                if kind == SchedulerKind::Phoenix {
                    // Phoenix's heartbeats are where the ledger is checked.
                    assert!(report.ledger_checks > 0, "{tag}: ledger must be audited");
                }
            }
            assert_eq!(r.incomplete_jobs, 0, "{tag}: every job must finish");
            assert_eq!(r.lost_tasks, 0, "{tag}: no task may be lost");
            assert!(
                r.counters.worker_crashes > 0,
                "{tag}: fault injection must actually fire"
            );
            assert_eq!(
                r.counters.worker_crashes, r.counters.worker_recoveries,
                "{tag}: every crashed worker must recover"
            );
        }
    }
}

/// The utilization bugfix, stated as a regression: under heavy faults the
/// corrected utilization (busy over *available* capacity) is strictly
/// above the uncorrected formula that counted crash downtime as available,
/// and still never exceeds 1. Digest-neutrality is pinned by the golden
/// fault snapshots, which predate the fix.
#[test]
fn utilization_excludes_crash_downtime_under_heavy_faults() {
    for seed in SEEDS {
        let r = run_spec(&spec(SchedulerKind::Phoenix, seed).with_faults(FaultPlan::heavy()));
        assert!(r.counters.worker_crashes > 0, "seed {seed}: faults fired");
        assert!(r.downtime_us > 0, "seed {seed}: downtime must be tracked");
        let capacity =
            r.metrics.makespan.as_micros() * r.workers as u64 * r.slots_per_worker.max(1) as u64;
        let uncorrected = r.metrics.busy_us as f64 / capacity as f64;
        let fixed = r.utilization();
        assert!(
            fixed > uncorrected,
            "seed {seed}: correcting for downtime must raise utilization \
             ({fixed} vs {uncorrected})"
        );
        assert!(fixed <= 1.0, "seed {seed}: utilization {fixed} above 1");
    }
}
