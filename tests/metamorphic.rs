//! Metamorphic battery: transformations of a run that must not change the
//! observable outcome (or must change it in an exactly predictable way).
//!
//! Each test states a relation of the form "run(T(input)) == R(run(input))"
//! where T is a semantics-preserving transformation:
//!
//! * **Clock scaling at the reference clock** — enabling
//!   `scale_duration_by_clock` on a cluster whose machines all run at
//!   exactly `reference_clock_mhz` multiplies every duration by 1.0, so it
//!   must be byte-identical to leaving it off.
//! * **Uniform time shift** — translating every arrival by a constant T
//!   shifts every event timestamp by exactly T and changes nothing else.
//! * **Worker-ID permutation** — permuting the order machines are handed
//!   to the engine relabels worker indices. For *unconstrained* workloads
//!   (machine attributes behaviourally inert) the digest must be invariant
//!   for all five schedulers. For constrained workloads on heterogeneous
//!   clusters the digest is *expectedly* index-sensitive: placement draws
//!   worker indices from the seeded RNG, so permuting the index→machine
//!   mapping re-routes the same draws to different machines. That is a
//!   property of seeded sampling, not a scheduler asymmetry; the
//!   unconstrained case is exactly the one where symmetry is well-defined.
//! * **Probe relabeling** — probe ids are opaque labels; burning a block
//!   of ids before the run (shifting every id the policies ever see) must
//!   leave the run byte-identical.
//! * **Expression algebra laws** — De Morgan, double negation, `Any`
//!   child permutation and `All`-flattening rewrites of constraint
//!   expression trees leave the compiled feasible sets unchanged; where
//!   the rewrite also preserves the placement draw sequence (feasible
//!   expressions, distinct-length `Any` branch projections) the full run
//!   digest is unchanged for all five schedulers.
//! * **Degenerate-`All` normalization** — replacing every flat constraint
//!   set with `ConstraintExpr::all(same_constraints)` is byte-identical
//!   across the 5-scheduler × 3-seed matrix: the expression front-end is
//!   provably free when the tree is a pure conjunction.

use phoenix::constraints::ones;
use phoenix::prelude::*;
use phoenix::sim::{SimCtx, SimState, WorkerId};
use phoenix::traces::{Job, JobId, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ALL_KINDS: [SchedulerKind; 5] = [
    SchedulerKind::Phoenix,
    SchedulerKind::EagleC,
    SchedulerKind::HawkC,
    SchedulerKind::SparrowC,
    SchedulerKind::YaqD,
];

const NODES: usize = 40;
const JOBS: usize = 150;
const UTIL: f64 = 0.7;
const SEED: u64 = 42;

fn yahoo_inputs() -> (Vec<AttributeVector>, Trace) {
    let profile = TraceProfile::yahoo();
    let mut rng = StdRng::seed_from_u64(1299);
    let cluster = MachinePopulation::generate(profile.population.clone(), NODES, &mut rng);
    let trace = TraceGenerator::new(profile, SEED).generate(JOBS, NODES, UTIL);
    (cluster.into_machines(), trace)
}

fn build_kind(kind: SchedulerKind) -> Box<dyn Scheduler> {
    let cutoff = TraceProfile::yahoo().short_cutoff_s();
    match kind {
        SchedulerKind::Phoenix => Box::new(Phoenix::new(PhoenixConfig::with_cutoff_s(cutoff))),
        SchedulerKind::EagleC => Box::new(EagleC::new(BaselineConfig::with_cutoff_s(cutoff))),
        SchedulerKind::HawkC => Box::new(HawkC::new(BaselineConfig::with_cutoff_s(cutoff))),
        SchedulerKind::SparrowC => Box::new(SparrowC::new(BaselineConfig::with_cutoff_s(cutoff))),
        SchedulerKind::YaqD => Box::new(YaqD::new(BaselineConfig::with_cutoff_s(cutoff))),
        other => panic!("not part of the metamorphic battery: {other:?}"),
    }
}

fn run_direct(
    config: SimConfig,
    machines: Vec<AttributeVector>,
    trace: &Trace,
    scheduler: Box<dyn Scheduler>,
    sink: Option<MemorySink>,
) -> SimResult {
    let mut sim = Simulation::new(
        config,
        FeasibilityIndex::new(machines),
        trace,
        scheduler,
        SEED,
    );
    if let Some(sink) = sink {
        sim.set_trace_sink(Box::new(sink));
    }
    sim.enable_audit(AuditConfig::default());
    let result = sim.run();
    let report = result.audit.as_ref().expect("audit enabled");
    assert!(report.is_clean(), "{}: {report}", result.scheduler);
    result
}

/// Rounds every arrival to an exact microsecond (the engine's resolution),
/// so a whole-second shift translates timestamps without re-rounding drift.
fn with_exact_arrivals(trace: &Trace, shift_s: f64) -> Trace {
    let jobs: Vec<Job> = trace
        .jobs()
        .iter()
        .map(|j| {
            let mut j = j.clone();
            j.arrival_s = (j.arrival_s * 1e6).round() / 1e6 + shift_s;
            j
        })
        .collect();
    Trace::new(trace.name().to_string(), jobs)
}

/// `scale_duration_by_clock` is the identity on a cluster running entirely
/// at the reference clock: same digest as leaving it off.
#[test]
fn clock_scaling_at_reference_clock_is_identity() {
    let (mut machines, trace) = yahoo_inputs();
    let reference_mhz = SimConfig::default().reference_clock_mhz;
    for m in &mut machines {
        m.cpu_clock_mhz = reference_mhz;
    }
    for kind in [SchedulerKind::Phoenix, SchedulerKind::EagleC] {
        let plain = run_direct(
            SimConfig::default(),
            machines.clone(),
            &trace,
            build_kind(kind),
            None,
        );
        let scaled_config = SimConfig {
            scale_duration_by_clock: true,
            ..SimConfig::default()
        };
        let scaled = run_direct(
            scaled_config,
            machines.clone(),
            &trace,
            build_kind(kind),
            None,
        );
        assert_eq!(
            plain.digest(),
            scaled.digest(),
            "{kind:?}: scaling by a 1.0 clock factor must be a no-op"
        );
    }
}

/// Shifting every arrival by a constant translates the whole run: same
/// counters, same busy time, same record stream with every timestamp moved
/// by exactly the shift, and a makespan larger by exactly the shift.
#[test]
fn uniform_time_shift_translates_the_run_exactly() {
    const SHIFT_S: f64 = 10.0;
    const SHIFT_US: u64 = 10_000_000;
    let (machines, raw_trace) = yahoo_inputs();
    let base_trace = with_exact_arrivals(&raw_trace, 0.0);
    let shifted_trace = with_exact_arrivals(&raw_trace, SHIFT_S);

    let base_sink = MemorySink::new(1 << 16);
    let base_handle = base_sink.handle();
    let base = run_direct(
        SimConfig::default(),
        machines.clone(),
        &base_trace,
        build_kind(SchedulerKind::Phoenix),
        Some(base_sink),
    );
    let shifted_sink = MemorySink::new(1 << 16);
    let shifted_handle = shifted_sink.handle();
    let shifted = run_direct(
        SimConfig::default(),
        machines,
        &shifted_trace,
        build_kind(SchedulerKind::Phoenix),
        Some(shifted_sink),
    );

    assert_eq!(base.counters, shifted.counters);
    assert_eq!(base.metrics.busy_us, shifted.metrics.busy_us);
    assert_eq!(
        base.metrics.makespan.as_micros() + SHIFT_US,
        shifted.metrics.makespan.as_micros(),
        "makespan must shift by exactly the arrival shift"
    );

    let base_records = MemorySink::records(&base_handle);
    let shifted_records = MemorySink::records(&shifted_handle);
    assert_eq!(base_records.len(), shifted_records.len());
    for (i, (a, b)) in base_records.iter().zip(&shifted_records).enumerate() {
        assert_eq!(
            a.kind_name(),
            b.kind_name(),
            "record {i} changed kind under a pure time shift"
        );
        assert_eq!(
            a.at_us() + SHIFT_US,
            b.at_us(),
            "record {i} ({}) did not shift by exactly {SHIFT_US} µs",
            a.kind_name()
        );
    }
}

/// For unconstrained workloads, permuting the order machines are handed to
/// the engine must not change any scheduler's result: worker indices are
/// then pure labels (no feasibility, no clock scaling), and all five
/// policies must treat them symmetrically.
#[test]
fn worker_permutation_leaves_unconstrained_runs_invariant() {
    let (machines, raw_trace) = yahoo_inputs();
    let jobs: Vec<Job> = raw_trace
        .jobs()
        .iter()
        .map(|j| {
            let mut j = j.clone();
            j.constraints = ConstraintSet::unconstrained();
            j
        })
        .collect();
    let trace = Trace::new(raw_trace.name().to_string(), jobs);

    let mut permuted = machines.clone();
    permuted.reverse();
    permuted.rotate_left(NODES / 3);

    for kind in ALL_KINDS {
        let original = run_direct(
            SimConfig::default(),
            machines.clone(),
            &trace,
            build_kind(kind),
            None,
        );
        let relabeled = run_direct(
            SimConfig::default(),
            permuted.clone(),
            &trace,
            build_kind(kind),
            None,
        );
        assert_eq!(
            original.digest(),
            relabeled.digest(),
            "{kind:?}: permuting worker creation order changed an unconstrained run"
        );
    }
}

/// Delegating wrapper that burns a block of probe ids before the first
/// placement, shifting every probe id its inner policy ever sees.
struct ProbeRelabeler {
    inner: Box<dyn Scheduler>,
    burn: u64,
}

impl Scheduler for ProbeRelabeler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        while self.burn > 0 {
            // `new_probe` only advances the id counter: no RNG, no metrics.
            let _ = ctx.new_probe(job);
            self.burn -= 1;
        }
        self.inner.on_job_arrival(job, ctx);
    }

    fn on_probe_enqueued(&mut self, worker: WorkerId, ctx: &mut SimCtx<'_>) {
        self.inner.on_probe_enqueued(worker, ctx);
    }

    fn select_probe(&mut self, worker: WorkerId, state: &SimState) -> Option<usize> {
        self.inner.select_probe(worker, state)
    }

    fn on_task_finish(
        &mut self,
        worker: WorkerId,
        job: JobId,
        duration_us: u64,
        ctx: &mut SimCtx<'_>,
    ) {
        self.inner.on_task_finish(worker, job, duration_us, ctx);
    }

    fn on_job_complete(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
        self.inner.on_job_complete(job, ctx);
    }

    fn on_wakeup(&mut self, token: u64, ctx: &mut SimCtx<'_>) {
        self.inner.on_wakeup(token, ctx);
    }

    fn on_probe_retry(&mut self, probe: phoenix::sim::Probe, ctx: &mut SimCtx<'_>) {
        self.inner.on_probe_retry(probe, ctx);
    }

    fn on_worker_crash(&mut self, worker: WorkerId, ctx: &mut SimCtx<'_>) {
        self.inner.on_worker_crash(worker, ctx);
    }

    fn on_worker_recover(&mut self, worker: WorkerId, ctx: &mut SimCtx<'_>) {
        self.inner.on_worker_recover(worker, ctx);
    }
}

// ---------------------------------------------------------------------------
// Expression algebra laws
// ---------------------------------------------------------------------------

/// A small random leaf pool spanning categorical and scalar kinds (values
/// straddle the yahoo population's attribute ranges so complements and
/// unions are all non-trivial).
fn law_leaf(sel: u64) -> ConstraintExpr {
    let hard = sel & 1 == 0;
    let mk = |kind, op, value| {
        ConstraintExpr::leaf(if hard {
            Constraint::hard(kind, op, value)
        } else {
            Constraint::soft(kind, op, value)
        })
    };
    match (sel >> 1) % 5 {
        0 => mk(ConstraintKind::Architecture, ConstraintOp::Eq, sel % 3),
        1 => mk(
            ConstraintKind::NumCores,
            ConstraintOp::Gt,
            [4, 8, 16][(sel >> 4) as usize % 3],
        ),
        2 => mk(
            ConstraintKind::Memory,
            ConstraintOp::Lt,
            [32, 64, 128][(sel >> 4) as usize % 3],
        ),
        3 => mk(ConstraintKind::PlatformFamily, ConstraintOp::Eq, sel % 2),
        _ => ConstraintExpr::vector(VectorDemand {
            cores: [4, 8][(sel >> 4) as usize % 2],
            memory_gb: [0, 16][(sel >> 5) as usize % 2],
            ..VectorDemand::default()
        }),
    }
}

fn feasible_ids(index: &FeasibilityIndex, expr: &ConstraintExpr) -> Vec<u32> {
    ones(&index.feasible_bits(&ConstraintSet::from_expr(expr.clone()))).collect()
}

/// De Morgan, double negation, `Any` permutation and `All`-flattening all
/// leave the compiled feasible set unchanged, for a battery of random
/// trees over the heterogeneous yahoo population.
#[test]
fn expression_rewrite_laws_preserve_feasible_sets() {
    let (machines, _) = yahoo_inputs();
    let index = FeasibilityIndex::new(machines);
    for seed in 0..60u64 {
        let a = law_leaf(seed.wrapping_mul(0x9e37_79b9));
        let b = law_leaf(seed.wrapping_mul(0x85eb_ca6b).wrapping_add(17));
        let c = law_leaf(seed.wrapping_mul(0xc2b2_ae35).wrapping_add(91));

        // De Morgan, both directions.
        let not_any = ConstraintExpr::not(ConstraintExpr::any_of(vec![a.clone(), b.clone()]));
        let all_not = ConstraintExpr::all_of(vec![
            ConstraintExpr::not(a.clone()),
            ConstraintExpr::not(b.clone()),
        ]);
        assert_eq!(
            feasible_ids(&index, &not_any),
            feasible_ids(&index, &all_not),
            "De Morgan Not(Any) != All(Not) at seed {seed}"
        );
        let not_all = ConstraintExpr::not(ConstraintExpr::all_of(vec![a.clone(), b.clone()]));
        let any_not = ConstraintExpr::any_of(vec![
            ConstraintExpr::not(a.clone()),
            ConstraintExpr::not(b.clone()),
        ]);
        assert_eq!(
            feasible_ids(&index, &not_all),
            feasible_ids(&index, &any_not),
            "De Morgan Not(All) != Any(Not) at seed {seed}"
        );

        // Double negation.
        let tree = ConstraintExpr::any_of(vec![a.clone(), ConstraintExpr::not(b.clone())]);
        assert_eq!(
            feasible_ids(&index, &tree),
            feasible_ids(
                &index,
                &ConstraintExpr::not(ConstraintExpr::not(tree.clone()))
            ),
            "double negation changed the feasible set at seed {seed}"
        );

        // `Any` child permutation.
        let fwd = ConstraintExpr::any_of(vec![a.clone(), b.clone(), c.clone()]);
        let rev = ConstraintExpr::any_of(vec![c.clone(), a.clone(), b.clone()]);
        assert_eq!(
            feasible_ids(&index, &fwd),
            feasible_ids(&index, &rev),
            "Any permutation changed the feasible set at seed {seed}"
        );

        // `All`-flattening: nested conjunctions normalize to the flat set,
        // so the two sets are not merely equi-feasible but *equal*.
        let nested = ConstraintExpr::all_of(vec![
            ConstraintExpr::all_of(vec![a.clone(), b.clone()]),
            c.clone(),
        ]);
        let flat = ConstraintExpr::all_of(vec![a.clone(), b.clone(), c.clone()]);
        assert_eq!(
            feasible_ids(&index, &nested),
            feasible_ids(&index, &flat),
            "All-flattening changed the feasible set at seed {seed}"
        );
    }
}

/// Swaps each constrained job's set for a handcrafted feasible expression,
/// alternating between an `Any` union (distinct-length branch projections)
/// and a negated union.
fn expression_trace(trace: &Trace, index: &FeasibilityIndex, rewrite: bool) -> Trace {
    let jobs: Vec<Job> = trace
        .jobs()
        .iter()
        .enumerate()
        .map(|(i, j)| {
            let mut j = j.clone();
            if j.constraints.is_unconstrained() {
                return j;
            }
            let expr = if i % 2 == 0 {
                // Any(leaf, vector): projections have lengths 1 and 2, so
                // the CRV min-branch projection is order-independent and a
                // child permutation preserves the draw sequence exactly.
                let leaf = ConstraintExpr::leaf(Constraint::hard(
                    ConstraintKind::NumCores,
                    ConstraintOp::Gt,
                    4,
                ));
                let vector = ConstraintExpr::vector(VectorDemand {
                    cores: 4,
                    memory_gb: 16,
                    ..VectorDemand::default()
                });
                if rewrite {
                    ConstraintExpr::any_of(vec![vector, leaf])
                } else {
                    ConstraintExpr::any_of(vec![leaf, vector])
                }
            } else {
                // Not(Any(isa, platform)) and its De Morgan rewrite
                // All(Not(isa), Not(platform)): identical eval/hard_eval
                // and identical (empty) CRV projections.
                let isa = ConstraintExpr::leaf(Constraint::hard(
                    ConstraintKind::Architecture,
                    ConstraintOp::Eq,
                    0,
                ));
                let platform = ConstraintExpr::leaf(Constraint::hard(
                    ConstraintKind::PlatformFamily,
                    ConstraintOp::Eq,
                    1,
                ));
                if rewrite {
                    ConstraintExpr::all_of(vec![
                        ConstraintExpr::not(isa),
                        ConstraintExpr::not(platform),
                    ])
                } else {
                    ConstraintExpr::not(ConstraintExpr::any_of(vec![isa, platform]))
                }
            };
            let set = ConstraintSet::from_expr(expr);
            // Draw-sequence preservation relies on the expression staying
            // feasible (admission never reaches branch negotiation).
            assert!(
                index.count_feasible(&set) > 0,
                "law fixture must be feasible"
            );
            j.constraints = set;
            j
        })
        .collect();
    Trace::new(trace.name().to_string(), jobs)
}

/// Where the rewrite preserves the draw sequence — feasible expressions,
/// order-independent projections — De Morgan and `Any`-permutation leave
/// the full run digest unchanged for all five schedulers.
#[test]
fn expression_rewrites_preserve_digests_when_draws_are_preserved() {
    let (machines, raw_trace) = yahoo_inputs();
    let index = FeasibilityIndex::new(machines.clone());
    let original = expression_trace(&raw_trace, &index, false);
    let rewritten = expression_trace(&raw_trace, &index, true);
    for kind in ALL_KINDS {
        let base = run_direct(
            SimConfig::default(),
            machines.clone(),
            &original,
            build_kind(kind),
            None,
        );
        let transformed = run_direct(
            SimConfig::default(),
            machines.clone(),
            &rewritten,
            build_kind(kind),
            None,
        );
        assert_eq!(
            base.digest(),
            transformed.digest(),
            "{kind:?}: law-preserving expression rewrite changed the run"
        );
    }
}

/// `ConstraintSet::from_constraints(v)` and the degenerate tree
/// `ConstraintExpr::all(v)` are byte-identical across the full
/// 5-scheduler × 3-seed matrix: the expression front-end normalizes pure
/// conjunctions to the exact flat representation, so pre-expression
/// digests cannot move.
#[test]
fn degenerate_all_trees_match_flat_sets_across_matrix() {
    for trace_seed in [7u64, 42, 1299] {
        let profile = TraceProfile::yahoo();
        let mut rng = StdRng::seed_from_u64(1299);
        let cluster = MachinePopulation::generate(profile.population.clone(), NODES, &mut rng);
        let machines = cluster.into_machines();
        let trace = TraceGenerator::new(profile, trace_seed).generate(JOBS, NODES, UTIL);

        let jobs: Vec<Job> = trace
            .jobs()
            .iter()
            .map(|j| {
                let mut j = j.clone();
                if j.constraints.expr().is_none() && !j.constraints.is_unconstrained() {
                    let flat: Vec<Constraint> = j.constraints.iter().cloned().collect();
                    let set = ConstraintSet::from_expr(ConstraintExpr::all(flat))
                        .with_placement(j.constraints.placement());
                    assert_eq!(set, j.constraints, "degenerate All must normalize to flat");
                    j.constraints = set;
                }
                j
            })
            .collect();
        let tree_trace = Trace::new(trace.name().to_string(), jobs);

        for kind in ALL_KINDS {
            let flat_run = run_direct(
                SimConfig::default(),
                machines.clone(),
                &trace,
                build_kind(kind),
                None,
            );
            let tree_run = run_direct(
                SimConfig::default(),
                machines.clone(),
                &tree_trace,
                build_kind(kind),
                None,
            );
            assert_eq!(
                flat_run.digest(),
                tree_run.digest(),
                "{kind:?} seed {trace_seed}: degenerate All tree diverged from flat set"
            );
        }
    }
}

/// Probe ids are opaque labels: offsetting every id by a large constant
/// (by burning a block of ids up front) leaves every scheduler's run — the
/// full record stream included — byte-identical.
#[test]
fn probe_relabeling_is_invisible() {
    for kind in ALL_KINDS {
        let (machines, trace) = yahoo_inputs();
        let plain_sink = MemorySink::new(1 << 16);
        let plain_handle = plain_sink.handle();
        let plain = run_direct(
            SimConfig::default(),
            machines.clone(),
            &trace,
            build_kind(kind),
            Some(plain_sink),
        );
        let relabeled_sink = MemorySink::new(1 << 16);
        let relabeled_handle = relabeled_sink.handle();
        let relabeled = run_direct(
            SimConfig::default(),
            machines,
            &trace,
            Box::new(ProbeRelabeler {
                inner: build_kind(kind),
                burn: 100_000,
            }),
            Some(relabeled_sink),
        );
        assert_eq!(
            plain.digest(),
            relabeled.digest(),
            "{kind:?}: probe ids leaked into scheduling decisions"
        );
        let plain_records = MemorySink::records(&plain_handle);
        let relabeled_records = MemorySink::records(&relabeled_handle);
        if let Some(diff) = first_trace_divergence(&plain_records, &relabeled_records) {
            panic!("{kind:?}: probe relabeling perturbed the record stream\n{diff}");
        }
    }
}
