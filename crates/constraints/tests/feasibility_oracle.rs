//! Equivalence oracle for the posting-list `FeasibilityIndex` and the
//! `SetTable` memo built over it.
//!
//! The index answers feasibility queries from per-attribute posting lists
//! and bitset blocks; the simulator's determinism (golden digests, RNG
//! draw sequences) rests on those answers being *exactly* the ones a naive
//! full-population scan would give. This suite pins that equivalence over
//! random populations and random constraint sets, covering every operator,
//! every kind, multi-constraint intersections, and the high-cardinality
//! fallback path (more distinct values than the bitset cap).

use phoenix_constraints::{
    feasible_fraction, ones, AttributeVector, Constraint, ConstraintKind, ConstraintOp,
    ConstraintSet, FeasibilityIndex, Isa, SetTable,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One machine from compact attribute pools (realistic: few distinct values
/// per kind) with a high-cardinality clock attribute so the CpuClockSpeed
/// kind overflows the prefix-bitset cap and exercises the fallback.
fn machine(bits: u64) -> AttributeVector {
    AttributeVector::builder()
        .isa(Isa::ALL[(bits % 3) as usize])
        .num_cores([4, 8, 16, 32, 64][(bits >> 2) as usize % 5])
        .memory_gb([16, 32, 64, 128][(bits >> 4) as usize % 4])
        .num_disks((bits >> 6) as u32 % 8)
        .ethernet_mbps([1_000, 10_000][(bits >> 9) as usize % 2])
        .kernel_version([266, 310, 318][(bits >> 10) as usize % 3])
        .cpu_clock_mhz(1_800 + (bits >> 12) as u32 % 200)
        .rack((bits >> 20) as u32 % 10)
        .rack_size([20, 40][(bits >> 24) as usize % 2])
        .build()
}

fn constraint(kind_sel: u8, op_sel: u8, value_sel: u8, hard: bool) -> Constraint {
    let kind = ConstraintKind::ALL[kind_sel as usize % ConstraintKind::ALL.len()];
    // Categorical kinds only support equality; for the rest pick values
    // straddling the generated attribute ranges (including never-matching
    // and always-matching extremes).
    let op = if kind.is_categorical() {
        ConstraintOp::Eq
    } else {
        [ConstraintOp::Lt, ConstraintOp::Gt, ConstraintOp::Eq][op_sel as usize % 3]
    };
    let value = match kind {
        ConstraintKind::Architecture => u64::from(value_sel % 4),
        ConstraintKind::PlatformFamily => u64::from(value_sel % 2),
        ConstraintKind::NumCores => [0, 4, 8, 16, 32, 64, 100][value_sel as usize % 7],
        ConstraintKind::Memory => [8, 16, 32, 64, 128][value_sel as usize % 5],
        ConstraintKind::MaxDisks | ConstraintKind::MinDisks => u64::from(value_sel % 9),
        ConstraintKind::EthernetSpeed => [500, 1_000, 10_000][value_sel as usize % 3],
        ConstraintKind::KernelVersion => [200, 266, 310, 318, 400][value_sel as usize % 5],
        ConstraintKind::CpuClockSpeed => 1_750 + u64::from(value_sel) * 2,
        ConstraintKind::NumNodes => [10, 20, 40, 80][value_sel as usize % 4],
    };
    if hard {
        Constraint::hard(kind, op, value)
    } else {
        Constraint::soft(kind, op, value)
    }
}

fn naive_feasible(machines: &[AttributeVector], set: &ConstraintSet) -> Vec<u32> {
    machines
        .iter()
        .enumerate()
        .filter(|(_, m)| set.satisfied_by(m))
        .map(|(i, _)| i as u32)
        .collect()
}

proptest! {
    /// The index's bitset and the table's id list equal the naive scan
    /// (same ids, same ascending order) and every derived query agrees
    /// with it.
    #[test]
    fn index_matches_naive_scan(
        seeds in prop::collection::vec(0u64..u64::MAX, 1..300),
        raw in prop::collection::vec((0u8..255, 0u8..255, 0u8..255, 0u8..2), 0..5),
    ) {
        let machines: Vec<AttributeVector> = seeds.iter().map(|&s| machine(s)).collect();
        let set: ConstraintSet = raw
            .iter()
            .map(|&(k, o, v, h)| constraint(k, o, v, h == 0))
            .collect();
        let index = FeasibilityIndex::new(machines.clone());
        let mut table = SetTable::default();
        let id = table.intern(&set);

        let naive = naive_feasible(&machines, &set);
        prop_assert_eq!(index.count_feasible(&set), naive.len(), "{}", &set);
        prop_assert_eq!(ones(&index.feasible_bits(&set)).collect::<Vec<_>>(), naive.clone());
        prop_assert_eq!(table.ids(&index, id).to_vec(), naive.clone(), "{}", &set);
        prop_assert_eq!(table.count(&index, id), naive.len());
        prop_assert!(
            (feasible_fraction(&machines, &set)
                - naive.len() as f64 / machines.len() as f64)
                .abs()
                < 1e-12
        );
        for w in 0..machines.len() as u32 {
            prop_assert_eq!(
                table.contains(&index, id, w),
                set.satisfied_by(&machines[w as usize])
            );
        }
        for c in set.iter() {
            let single: Vec<u32> = machines
                .iter()
                .enumerate()
                .filter(|(_, m)| c.satisfied_by(m))
                .map(|(i, _)| i as u32)
                .collect();
            let bits = index.feasible_single(c);
            let from_bits: Vec<u32> = (0..machines.len() as u32)
                .filter(|&w| bits[w as usize >> 6] >> (w & 63) & 1 != 0)
                .collect();
            prop_assert_eq!(from_bits, single.clone(), "{}", c);
            prop_assert_eq!(index.count_single(c), single.len(), "{}", c);
        }
    }

    /// Sampling returns distinct feasible non-excluded workers, exactly
    /// min(k, available) of them, for both the linear and bitmask
    /// duplicate-guard regimes.
    #[test]
    fn sampling_is_exact_and_distinct(
        seeds in prop::collection::vec(0u64..u64::MAX, 1..200),
        raw in prop::collection::vec((0u8..255, 0u8..255, 0u8..255, 0u8..2), 0..3),
        k in 0usize..40,
        rng_seed in 0u64..1_000,
        exclude_mod in 1u32..7,
    ) {
        let machines: Vec<AttributeVector> = seeds.iter().map(|&s| machine(s)).collect();
        let set: ConstraintSet = raw
            .iter()
            .map(|&(kk, o, v, h)| constraint(kk, o, v, h == 0))
            .collect();
        let index = FeasibilityIndex::new(machines.clone());
        let mut table = SetTable::default();
        let id = table.intern(&set);
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let n = index.len() as u32;
        let sample = table.sample(&index, id, k, 0..n, &mut rng, |w| w % exclude_mod == 0);
        let available = naive_feasible(&machines, &set)
            .into_iter()
            .filter(|w| w % exclude_mod != 0)
            .count();
        prop_assert_eq!(sample.len(), k.min(available));
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), sample.len(), "duplicates in sample");
        for &w in &sample {
            prop_assert!(w % exclude_mod != 0, "excluded worker {} sampled", w);
            prop_assert!(set.satisfied_by(&machines[w as usize]));
        }
    }

    /// Interning is by value: two handles are equal exactly when their
    /// sets are, and a handle's set is the one interned.
    #[test]
    fn interning_equal_sets_returns_one_handle(
        raw in prop::collection::vec((0u8..255, 0u8..255, 0u8..255, 0u8..2), 0..5),
    ) {
        let constraints: Vec<Constraint> = raw
            .iter()
            .map(|&(k, o, v, h)| constraint(k, o, v, h == 0))
            .collect();
        let set: ConstraintSet = constraints.iter().copied().collect();
        let mut table = SetTable::default();
        let id = table.intern(&set);
        prop_assert_eq!(table.intern(&constraints.iter().copied().collect()), id);
        prop_assert_eq!(table.get(id), &set);
        for other in [
            constraints.iter().rev().copied().collect::<ConstraintSet>(),
            set.hard_only(),
            ConstraintSet::unconstrained(),
        ] {
            prop_assert_eq!(table.intern(&other) == id, other == set);
        }
    }
}

/// The index caches nothing, so it can be shared across threads.
const _: () = {
    const fn shareable<T: Send + Sync>() {}
    shareable::<FeasibilityIndex>();
};
