//! Differential oracle: the real engine vs the brute-force
//! [`ReferenceExecutor`] on proptest-generated tiny scenarios.
//!
//! The reference executor re-implements the engine's event loop and
//! dispatch semantics as naively as possible (flat event list scanned
//! linearly, no incremental ledgers, no touched-worker batching) and must
//! agree **event-for-event** with the real engine: same trace-record
//! stream, same result digest. Both drive the same policy code, so any
//! divergence pins a bug in the engine's mechanics — event ordering, tie
//! breaking, the dispatch loop — rather than in a scheduler.
//!
//! Three policies are differentially tested, as the audit-kit spec asks:
//! Random (the simplest placement), Eagle-C (SRPT-ordered queues and work
//! stealing) and Phoenix (CRV reordering, admission control, the full
//! machinery). 36 generated scenarios × 3 policies = 108 differential
//! runs, each also executed under the invariant auditor.

use phoenix::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Policies under differential test. `EagleC` is the SRPT representative:
/// its worker queues are SRPT-ordered and it steals work.
const POLICIES: [&str; 3] = ["random", "eagle-c", "phoenix"];

fn build_policy(name: &str, cutoff_s: f64) -> Box<dyn Scheduler> {
    match name {
        "random" => Box::new(phoenix::sim::RandomScheduler::new(2)),
        "eagle-c" => Box::new(EagleC::new(BaselineConfig::with_cutoff_s(cutoff_s))),
        "phoenix" => Box::new(Phoenix::new(PhoenixConfig::with_cutoff_s(cutoff_s))),
        other => panic!("unknown policy {other}"),
    }
}

/// One tiny scenario, well inside the reference executor's size caps.
#[derive(Debug, Clone)]
struct Scenario {
    nodes: usize,
    jobs: usize,
    util: f64,
    seed: u64,
}

/// The scenario's trace.
fn build_trace(s: &Scenario) -> Trace {
    TraceGenerator::new(TraceProfile::yahoo(), s.seed).generate(s.jobs, s.nodes, s.util)
}

fn build_sim<'t>(s: &Scenario, trace: &'t Trace, policy: &str, sink: MemorySink) -> Simulation<'t> {
    let profile = TraceProfile::yahoo();
    let cutoff = profile.short_cutoff_s();
    let mut rng = StdRng::seed_from_u64(s.seed.wrapping_mul(31).wrapping_add(5));
    let cluster = MachinePopulation::generate(profile.population.clone(), s.nodes, &mut rng);
    let mut sim = Simulation::new(
        SimConfig::default(),
        FeasibilityIndex::new(cluster.into_machines()),
        trace,
        build_policy(policy, cutoff),
        s.seed,
    );
    sim.set_trace_sink(Box::new(sink));
    sim
}

/// Runs one scenario through both executors and asserts event-for-event
/// agreement. The engine side additionally runs under the invariant
/// auditor (which must stay silent and must not perturb the digest).
fn assert_executors_agree(s: &Scenario, policy: &str) {
    let real_sink = MemorySink::new(1 << 16);
    let real_handle = real_sink.handle();
    let trace = build_trace(s);
    let mut real_sim = build_sim(s, &trace, policy, real_sink);
    real_sim.enable_audit(AuditConfig::default());
    let real = real_sim.run();

    let ref_sink = MemorySink::new(1 << 16);
    let ref_handle = ref_sink.handle();
    let ref_sim = build_sim(s, &trace, policy, ref_sink);
    let reference = ReferenceExecutor::run(ref_sim);

    let report = real.audit.as_ref().expect("audit enabled");
    assert!(report.is_clean(), "{policy} {s:?}: {report}");

    let real_records = MemorySink::records(&real_handle);
    let ref_records = MemorySink::records(&ref_handle);
    if let Some(diff) = first_trace_divergence(&real_records, &ref_records) {
        panic!("{policy} {s:?}: executors diverged\n{diff}");
    }
    assert_eq!(
        real.digest(),
        reference.digest(),
        "{policy} {s:?}: identical event streams but different results"
    );
    assert_eq!(real.incomplete_jobs, 0, "{policy} {s:?}");
    assert_eq!(reference.incomplete_jobs, 0, "{policy} {s:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(36))]

    /// The engine and the naive reference executor agree event-for-event
    /// (and digest-for-digest) on arbitrary tiny fault-free scenarios, for
    /// all three differential policies.
    #[test]
    fn engine_matches_reference_executor(
        nodes in 2usize..17,
        jobs in 1usize..41,
        util in 0.2f64..0.9,
        seed in 0u64..10_000,
    ) {
        let s = Scenario { nodes, jobs, util, seed };
        for policy in POLICIES {
            assert_executors_agree(&s, policy);
        }
    }
}

/// A fixed contended scenario at the oracle's size caps, kept out of
/// proptest so a regression here fails with a stable name.
#[test]
fn engine_matches_reference_executor_at_size_caps() {
    let s = Scenario {
        nodes: ReferenceExecutor::MAX_WORKERS,
        jobs: ReferenceExecutor::MAX_JOBS,
        util: 0.85,
        seed: 42,
    };
    for policy in POLICIES {
        assert_executors_agree(&s, policy);
    }
}
