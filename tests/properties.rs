//! Property-based tests on cross-crate invariants.

use proptest::prelude::*;

use phoenix::constraints::{
    feasible_fraction, Constraint, ConstraintClass, ConstraintKind, ConstraintOp, ConstraintSet,
    MachinePopulation, PopulationProfile,
};
use phoenix::metrics::Distribution;
use phoenix::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_kind() -> impl Strategy<Value = ConstraintKind> {
    prop::sample::select(ConstraintKind::ALL.to_vec())
}

fn arb_op() -> impl Strategy<Value = ConstraintOp> {
    prop::sample::select(vec![ConstraintOp::Lt, ConstraintOp::Gt, ConstraintOp::Eq])
}

fn arb_class() -> impl Strategy<Value = ConstraintClass> {
    prop::sample::select(vec![ConstraintClass::Hard, ConstraintClass::Soft])
}

prop_compose! {
    fn arb_constraint()(
        kind in arb_kind(),
        op in arb_op(),
        value in 0u64..5_000,
        class in arb_class(),
    ) -> Constraint {
        Constraint::new(kind, op, value, class)
    }
}

fn arb_set() -> impl Strategy<Value = ConstraintSet> {
    prop::collection::vec(arb_constraint(), 0..6).prop_map(ConstraintSet::from_constraints)
}

fn reference_machines() -> Vec<phoenix::constraints::AttributeVector> {
    let mut rng = StdRng::seed_from_u64(1234);
    MachinePopulation::generate(PopulationProfile::google_like(), 300, &mut rng).into_machines()
}

proptest! {
    /// Removing constraints can only widen the feasible set.
    #[test]
    fn relaxation_is_monotone(set in arb_set()) {
        let machines = reference_machines();
        let full = feasible_fraction(&machines, &set);
        let hard = feasible_fraction(&machines, &set.hard_only());
        prop_assert!(hard >= full, "hard-only {hard} < full {full}");
        let mut i = 0;
        while let Some(relaxed) = set.relax_soft(i) {
            let f = feasible_fraction(&machines, &relaxed);
            prop_assert!(f >= full, "relaxed {f} < full {full}");
            i += 1;
            if i > 8 { break; }
        }
    }

    /// A set is satisfied exactly when every constraint is satisfied.
    #[test]
    fn satisfaction_is_conjunction(set in arb_set(), machine_idx in 0usize..300) {
        let machines = reference_machines();
        let m = &machines[machine_idx];
        let expected = set.iter().all(|c| c.satisfied_by(m));
        prop_assert_eq!(set.satisfied_by(m), expected);
    }

    /// Set equality ignores insertion order.
    #[test]
    fn set_equality_is_order_insensitive(cs in prop::collection::vec(arb_constraint(), 0..6)) {
        let forward = ConstraintSet::from_constraints(cs.clone());
        let mut reversed = cs;
        reversed.reverse();
        prop_assert_eq!(forward, ConstraintSet::from_constraints(reversed));
    }

    /// Percentiles are monotone in `p` and bounded by min/max.
    #[test]
    fn percentiles_are_monotone(samples in prop::collection::vec(0.0f64..1e6, 1..200)) {
        let mut d = Distribution::from_samples(samples.clone());
        let ps = [0.0, 10.0, 50.0, 90.0, 99.0, 100.0];
        let values: Vec<f64> = ps.iter().map(|&p| d.percentile(p)).collect();
        for w in values.windows(2) {
            prop_assert!(w[1] >= w[0], "{values:?}");
        }
        prop_assert_eq!(values[0], d.min());
        prop_assert_eq!(values[ps.len() - 1], d.max());
    }

    /// Merging distributions preserves the sample count and the extrema.
    #[test]
    fn distribution_merge_preserves_counts(
        a in prop::collection::vec(0.0f64..1e6, 0..100),
        b in prop::collection::vec(0.0f64..1e6, 0..100),
    ) {
        let mut merged = Distribution::from_samples(a.clone());
        merged.merge(&Distribution::from_samples(b.clone()));
        prop_assert_eq!(merged.len(), a.len() + b.len());
        let expected_max = a.iter().chain(&b).fold(0.0f64, |m, &x| m.max(x));
        if !merged.is_empty() {
            prop_assert!((merged.max() - expected_max).abs() < 1e-9);
        }
    }

    /// The trace generator respects job counts, classification and
    /// ordering for arbitrary small parameters.
    #[test]
    fn generated_traces_are_well_formed(
        jobs in 1usize..120,
        nodes in 5usize..80,
        util in 0.2f64..0.95,
        seed in 0u64..500,
    ) {
        let profile = TraceProfile::yahoo();
        let cutoff = profile.short_cutoff_s();
        let trace = TraceGenerator::new(profile, seed).generate(jobs, nodes, util);
        prop_assert_eq!(trace.len(), jobs);
        let mut last = f64::NEG_INFINITY;
        for job in &trace {
            prop_assert!(job.arrival_s >= last, "arrivals sorted");
            last = job.arrival_s;
            prop_assert!(job.num_tasks() >= 1);
            prop_assert_eq!(job.estimated_task_duration_s <= cutoff, job.short);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The full pipeline terminates with conservation for random small
    /// workloads and any scheduler.
    #[test]
    fn simulation_conserves_tasks(
        seed in 0u64..64,
        util in 0.3f64..0.95,
        kind_idx in 0usize..5,
    ) {
        let kinds = [
            SchedulerKind::Phoenix,
            SchedulerKind::EagleC,
            SchedulerKind::HawkC,
            SchedulerKind::SparrowC,
            SchedulerKind::YaqD,
        ];
        let mut spec = RunSpec::new(TraceProfile::yahoo(), kinds[kind_idx]);
        spec.nodes = 60;
        spec.gen_nodes = 60;
        spec.gen_util = util;
        spec.jobs = 150;
        spec.seed = seed;
        let result = run_spec(&spec);
        prop_assert_eq!(result.incomplete_jobs, 0);
        let c = result.counters;
        prop_assert_eq!(
            c.probes_sent + c.bound_placements + c.sbp_continuations,
            c.tasks_completed + c.redundant_probes
        );
    }
}
