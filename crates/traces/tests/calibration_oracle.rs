//! Oracle for trace calibration on the posting-list index.
//!
//! `TraceGenerator` keeps or resamples each synthesized constraint set by
//! comparing its supply on a reference machine sample against the
//! profile's `min_class_supply` floor. The supply comes from an uncached
//! `FeasibilityIndex` count; this suite pins it, bit for bit, to the naive
//! `feasible_fraction` scan on the generator's own reference sample, over
//! every shipped profile's candidate sets. A fingerprint per profile then
//! pins the generated traces themselves.

use phoenix_constraints::{
    feasible_fraction, AttributeVector, ConstraintExpr, ConstraintModel, ConstraintSet,
    FeasibilityIndex, PlacementConstraint,
};
use phoenix_traces::{TraceGenerator, TraceProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Candidate sets drawn per (model, cap) pair.
const DRAWS: usize = 2_000;

fn profiles() -> Vec<TraceProfile> {
    vec![
        TraceProfile::yahoo(),
        TraceProfile::google(),
        TraceProfile::cloudera(),
        TraceProfile::yahoo_expr(1),
        TraceProfile::yahoo_expr(2),
        TraceProfile::yahoo_expr(3),
    ]
}

/// What the checked sets covered, so the suite cannot pass vacuously.
#[derive(Default)]
struct Coverage {
    sets: usize,
    placement: usize,
    pure_not: usize,
}

fn assert_fractions_agree(
    index: &FeasibilityIndex,
    machines: &[AttributeVector],
    set: &ConstraintSet,
    seen: &mut Coverage,
) {
    let indexed = index.feasible_fraction(set);
    let naive = feasible_fraction(machines, set);
    assert_eq!(
        indexed.to_bits(),
        naive.to_bits(),
        "{set}: index {indexed} vs scan {naive}"
    );
    seen.sets += 1;
    if set.placement() != PlacementConstraint::None {
        seen.placement += 1;
    }
    if matches!(set.expr(), Some(ConstraintExpr::Not(_))) {
        seen.pure_not += 1;
    }
}

#[test]
fn index_fraction_equals_scan_on_every_profile() {
    for (i, profile) in profiles().into_iter().enumerate() {
        let name = profile.name;
        let machines = TraceGenerator::new(profile.clone(), 42).reference_sample();
        let index = FeasibilityIndex::new(machines.clone());
        // The profile's own model, plus a variant where every set carries
        // a placement and most are depth-2 expressions (affinity `Any`,
        // anti-affinity pure `Not`, packing disjunctions).
        let mut forced = profile.constraint_model.clone().with_expressions(0.8, 2);
        forced.placement_fraction = 1.0;
        let models: [&ConstraintModel; 2] = [&profile.constraint_model, &forced];
        let mut seen = Coverage::default();
        let mut rng = StdRng::seed_from_u64(0x0CA1_1B00 + i as u64);
        for model in models {
            for cap in [usize::MAX, profile.long_constraint_cap] {
                for _ in 0..DRAWS {
                    let set = model.synthesize_set_capped(&mut rng, cap);
                    assert_fractions_agree(&index, &machines, &set, &mut seen);
                }
            }
        }
        assert_eq!(seen.sets, 4 * DRAWS, "{name}");
        assert!(
            seen.placement >= DRAWS,
            "{name}: {} placement sets",
            seen.placement
        );
        assert!(
            seen.pure_not > 100,
            "{name}: {} pure-Not sets",
            seen.pure_not
        );
    }
}

#[test]
fn index_fraction_equals_scan_at_the_edges() {
    let machines = TraceGenerator::new(TraceProfile::yahoo(), 7).reference_sample();
    let index = FeasibilityIndex::new(machines.clone());
    let mut seen = Coverage::default();
    for set in [
        ConstraintSet::unconstrained(),
        ConstraintSet::unconstrained().with_placement(PlacementConstraint::Spread),
        ConstraintSet::from_expr(ConstraintExpr::any_of(Vec::new())),
        ConstraintSet::from_expr(ConstraintExpr::not(ConstraintExpr::all_of(Vec::new()))),
    ] {
        assert_fractions_agree(&index, &machines, &set, &mut seen);
    }
    // An empty population reports 0.0 on both paths.
    let empty = FeasibilityIndex::new(Vec::new());
    let set = ConstraintSet::unconstrained();
    assert_eq!(empty.feasible_fraction(&set).to_bits(), 0f64.to_bits());
    assert_eq!(feasible_fraction(&[], &set).to_bits(), 0f64.to_bits());
}

/// FNV-1a over the `{:?}` rendering of every job, in trace order.
fn fingerprint(profile: TraceProfile, seed: u64) -> u64 {
    let trace = TraceGenerator::new(profile, seed).generate(2_000, 1_000, 0.8);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for job in trace.iter() {
        for byte in format!("{job:?}").bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Traces are pinned byte for byte. The constants were captured from the
/// scan-based calibration this index-based one replaced; any drift means
/// calibration no longer keeps exactly the same candidate sets.
#[test]
fn trace_fingerprints_are_pinned() {
    let expected = [
        0x7f4f_c19e_0dc8_551du64,
        0x793b_9fd9_c2d4_77ed,
        0x5132_a81b_b327_bc28,
        0x8c21_df68_5fab_9e28,
        0xd26c_d2e1_8a35_ef3b,
        0x70c6_f23a_476b_c86d,
    ];
    for (profile, expected) in profiles().into_iter().zip(expected) {
        let name = profile.name;
        let actual = fingerprint(profile, 42);
        assert_eq!(
            actual, expected,
            "{name}: fingerprint {actual:#018x}, pinned {expected:#018x}"
        );
    }
}
