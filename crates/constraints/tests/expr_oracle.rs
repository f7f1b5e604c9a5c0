//! Compile-vs-naive equivalence oracle for constraint *expressions*.
//!
//! The `FeasibilityIndex` compiles `All`/`Any`/`Not`/`VectorDemand` trees
//! to bitset plans (`Any` = word-wise OR, `Not` = AND-NOT against the
//! universe mask, `All` = intersection). This battery pins the compiled
//! plans to the naive recursive evaluator [`ConstraintExpr::eval`] over
//! random trees (depth ≤ 5, every kind and operator, nested `Not`/`Any`,
//! vector leaves, high-cardinality fallback kinds) and random clusters:
//! the index's bits and count, the set table's id list, count and
//! membership (before and after the bitset is built), and **exact
//! `SetTable::sample` RNG-draw parity**, cold and warm — including after
//! machine add/remove/crash churn.

use phoenix_constraints::{
    ones, AttributeVector, Constraint, ConstraintExpr, ConstraintKind, ConstraintOp, ConstraintSet,
    FeasibilityIndex, Isa, SetTable, VectorDemand,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One machine from compact attribute pools, with a high-cardinality clock
/// attribute so the CpuClockSpeed kind overflows the prefix-bitset cap and
/// `Not`/`Any` plans exercise the posting-range fallback.
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

/// A random scalar leaf over every kind/op/class, with values straddling
/// the generated attribute ranges (never-matching and always-matching
/// extremes included).
fn random_leaf(rng: &mut StdRng) -> Constraint {
    let kind = ConstraintKind::ALL[rng.random_range(0..ConstraintKind::ALL.len())];
    let op = if kind.is_categorical() {
        ConstraintOp::Eq
    } else {
        [ConstraintOp::Lt, ConstraintOp::Gt, ConstraintOp::Eq][rng.random_range(0..3)]
    };
    let value_sel = rng.random_range(0..256u64);
    let value = match kind {
        ConstraintKind::Architecture => value_sel % 4,
        ConstraintKind::PlatformFamily => value_sel % 2,
        ConstraintKind::NumCores => [0, 4, 8, 16, 32, 64, 100][value_sel as usize % 7],
        ConstraintKind::Memory => [8, 16, 32, 64, 128][value_sel as usize % 5],
        ConstraintKind::MaxDisks | ConstraintKind::MinDisks => value_sel % 9,
        ConstraintKind::EthernetSpeed => [500, 1_000, 10_000][value_sel as usize % 3],
        ConstraintKind::KernelVersion => [200, 266, 310, 318, 400][value_sel as usize % 5],
        ConstraintKind::CpuClockSpeed => 1_750 + value_sel * 2,
        ConstraintKind::NumNodes => [10, 20, 40, 80][value_sel as usize % 4],
    };
    if rng.random::<bool>() {
        Constraint::hard(kind, op, value)
    } else {
        Constraint::soft(kind, op, value)
    }
}

/// A random expression tree with combinator nesting bounded by `depth`
/// (total tree depth ≤ depth + 1, i.e. ≤ 5 for the battery's budget of 4).
fn random_expr(rng: &mut StdRng, depth: usize) -> ConstraintExpr {
    let choice = if depth == 0 {
        rng.random_range(0..2u32)
    } else {
        rng.random_range(0..6u32)
    };
    match choice {
        0 => ConstraintExpr::leaf(random_leaf(rng)),
        1 => ConstraintExpr::vector(VectorDemand {
            cores: [0, 4, 16, 64][rng.random_range(0..4)],
            memory_gb: [0, 32, 128][rng.random_range(0..3)],
            disks: rng.random_range(0..9u64),
            clock_mhz: [0, 1_850, 1_990][rng.random_range(0..3)],
            ethernet_mbps: [0, 1_000, 10_000][rng.random_range(0..3)],
        }),
        2 | 3 => {
            let n = rng.random_range(0..4usize);
            let children = (0..n).map(|_| random_expr(rng, depth - 1)).collect();
            if choice == 2 {
                ConstraintExpr::all_of(children)
            } else {
                ConstraintExpr::any_of(children)
            }
        }
        _ => ConstraintExpr::not(random_expr(rng, depth - 1)),
    }
}

fn naive_feasible(machines: &[AttributeVector], expr: &ConstraintExpr) -> Vec<u32> {
    machines
        .iter()
        .enumerate()
        .filter(|(_, m)| expr.eval(m))
        .map(|(i, _)| i as u32)
        .collect()
}

/// A from-scratch mirror of `SetTable::sample`'s documented RNG contract,
/// with membership answered by the naive recursive evaluator: one
/// `random_range` per rejection try (budget `k*6 + 16`), then one shuffle
/// of the surviving exact-phase pool (ascending ids). Draw-for-draw parity
/// with the index proves expression membership cannot perturb the
/// simulator's determinism.
fn naive_sample(
    machines: &[AttributeVector],
    expr: &ConstraintExpr,
    k: usize,
    rng: &mut StdRng,
    mut exclude: impl FnMut(u32) -> bool,
) -> Vec<u32> {
    if k == 0 || machines.is_empty() {
        return Vec::new();
    }
    let n = machines.len();
    let mut picked: Vec<u32> = Vec::new();
    for _ in 0..k * 6 + 16 {
        if picked.len() == k {
            return picked;
        }
        let idx = rng.random_range(0..n) as u32;
        if picked.contains(&idx) || exclude(idx) {
            continue;
        }
        if expr.eval(&machines[idx as usize]) {
            picked.push(idx);
        }
    }
    if picked.len() == k {
        return picked;
    }
    let mut pool: Vec<u32> = naive_feasible(machines, expr)
        .into_iter()
        .filter(|&w| !picked.contains(&w) && !exclude(w))
        .collect();
    pool.shuffle(rng);
    for w in pool {
        if picked.len() == k {
            break;
        }
        picked.push(w);
    }
    picked
}

/// Samples `k` machines of `set` over the whole population through a
/// fresh set table (the set's bitset not built yet).
fn sample_cold(
    index: &FeasibilityIndex,
    set: &ConstraintSet,
    k: usize,
    rng: &mut StdRng,
    exclude: impl FnMut(u32) -> bool,
) -> Vec<u32> {
    let mut table = SetTable::default();
    let id = table.intern(set);
    table.sample(index, id, k, 0..index.len() as u32, rng, exclude)
}

fn check_parity(machines: &[AttributeVector], index: &FeasibilityIndex, expr: &ConstraintExpr) {
    let set = ConstraintSet::from_expr(expr.clone());
    let naive = naive_feasible(machines, expr);
    assert_eq!(
        index.count_feasible(&set),
        naive.len(),
        "index count vs naive: {expr}"
    );
    let mut table = SetTable::default();
    let id = table.intern(&set);
    // Membership before the bitset is built (direct comparison) ...
    for w in 0..machines.len() as u32 {
        assert_eq!(
            table.contains(index, id, w),
            expr.eval(&machines[w as usize])
        );
    }
    assert_eq!(
        table.ids(index, id).to_vec(),
        naive,
        "feasible list vs naive: {expr}"
    );
    assert_eq!(table.count(index, id), naive.len());
    // ... and after (a word test).
    for w in 0..machines.len() as u32 {
        assert_eq!(
            table.contains(index, id, w),
            expr.eval(&machines[w as usize]),
            "membership of worker {w}: {expr}"
        );
        assert_eq!(
            set.satisfied_by(&machines[w as usize]),
            expr.eval(&machines[w as usize])
        );
    }
}

/// `Not(leaf)` over every kind and operator is the exact set complement of
/// the leaf on the indexed population — and complements never resurrect
/// dead machines: liveness is an exclusion predicate at sampling time, so
/// a machine excluded as dead can never be returned, no matter how the
/// complement's bitset looks.
#[test]
fn not_leaf_is_exact_complement_and_never_resurrects_dead_machines() {
    let machines: Vec<AttributeVector> = (0..257u64)
        .map(|i| machine(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        .collect();
    let n = machines.len() as u32;
    let index = FeasibilityIndex::new(machines.clone());
    // Every kind × every applicable op × a spread of values.
    for kind in ConstraintKind::ALL {
        let ops: &[ConstraintOp] = if kind.is_categorical() {
            &[ConstraintOp::Eq]
        } else {
            &[ConstraintOp::Lt, ConstraintOp::Gt, ConstraintOp::Eq]
        };
        for &op in ops {
            for value_sel in [0u64, 31, 64, 127, 200, 255] {
                let mut probe = StdRng::seed_from_u64(value_sel);
                let leaf = loop {
                    let c = random_leaf(&mut probe);
                    if c.kind == kind && c.op == op {
                        break c;
                    }
                };
                let pos = ConstraintExpr::leaf(leaf);
                let neg = ConstraintExpr::not(pos.clone());
                let pos_ids = naive_feasible(&machines, &pos);
                let neg_set = ConstraintSet::from_expr(neg.clone());
                let complement: Vec<u32> = (0..n).filter(|w| !pos_ids.contains(w)).collect();
                assert_eq!(
                    ones(&index.feasible_bits(&neg_set)).collect::<Vec<_>>(),
                    complement,
                    "Not({leaf}) is not the set complement"
                );
                assert_eq!(index.count_feasible(&neg_set), complement.len());

                // "Dead" machines (every fourth id) must stay invisible to
                // sampling even when the complement's bitset covers them.
                let mut rng = StdRng::seed_from_u64(7 + value_sel);
                let sample = sample_cold(&index, &neg_set, 12, &mut rng, |w| w % 4 == 0);
                for w in &sample {
                    assert!(w % 4 != 0, "Not({leaf}) resurrected dead machine {w}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Compiled plans agree with the recursive evaluator on every
    /// feasibility query, for random trees over random clusters.
    #[test]
    fn compiled_plan_matches_recursive_evaluator(
        seeds in prop::collection::vec(0u64..u64::MAX, 1..300),
        expr_seed in 0u64..u64::MAX,
        depth in 0usize..5,
    ) {
        let machines: Vec<AttributeVector> = seeds.iter().map(|&s| machine(s)).collect();
        let expr = random_expr(&mut StdRng::seed_from_u64(expr_seed), depth);
        prop_assert!(expr.depth() <= 5);
        let index = FeasibilityIndex::new(machines.clone());
        check_parity(&machines, &index, &expr);
    }

    /// Exact RNG-draw parity of `SetTable::sample` between the compiled
    /// plan and the naive mirror sampler: same picks, and the two RNG
    /// streams remain synchronized afterwards (proving identical draw
    /// counts), under exclusion predicates standing in for dead machines.
    #[test]
    fn sampling_draw_parity_with_naive_mirror(
        seeds in prop::collection::vec(0u64..u64::MAX, 1..200),
        expr_seed in 0u64..u64::MAX,
        depth in 0usize..5,
        k in 0usize..40,
        rng_seed in 0u64..1_000,
        exclude_mod in 1u32..7,
    ) {
        let machines: Vec<AttributeVector> = seeds.iter().map(|&s| machine(s)).collect();
        let expr = random_expr(&mut StdRng::seed_from_u64(expr_seed), depth);
        let set = ConstraintSet::from_expr(expr.clone());
        let index = FeasibilityIndex::new(machines.clone());

        // Cold path: the set's bitset is not built yet, so membership
        // falls to `set.satisfied_by` (the tree evaluator).
        let mut table = SetTable::default();
        let id = table.intern(&set);
        let mut rng_a = StdRng::seed_from_u64(rng_seed);
        let n = index.len() as u32;
        let got = table.sample(&index, id, k, 0..n, &mut rng_a, |w| w % exclude_mod == 0);
        let mut rng_b = StdRng::seed_from_u64(rng_seed);
        let want = naive_sample(&machines, &expr, k, &mut rng_b, |w| w % exclude_mod == 0);
        prop_assert_eq!(&got, &want, "cold sample diverged");
        prop_assert_eq!(rng_a.random::<u64>(), rng_b.random::<u64>(), "draw counts diverged");

        // Warm path: after a count the bitset is built and membership
        // becomes a word test — the draws must not change.
        let _ = table.count(&index, id);
        let mut rng_c = StdRng::seed_from_u64(rng_seed);
        let warm = table.sample(&index, id, k, 0..n, &mut rng_c, |w| w % exclude_mod == 0);
        prop_assert_eq!(&warm, &want, "warm sample diverged from cold");

        // No resurrection: excluded ("dead") machines never appear, even
        // for complements that match them at the index level.
        for &w in &got {
            prop_assert!(w % exclude_mod != 0, "excluded worker {} sampled", w);
        }
    }

    /// Equivalence survives machine churn: removals, additions and crashes
    /// (modeled exactly as the simulator does — indexes are rebuilt per
    /// population, aliveness is an exclusion predicate, never index state).
    #[test]
    fn churn_preserves_equivalence(
        seeds in prop::collection::vec(0u64..u64::MAX, 2..150),
        extra in prop::collection::vec(0u64..u64::MAX, 1..80),
        expr_seed in 0u64..u64::MAX,
        depth in 1usize..5,
        rng_seed in 0u64..1_000,
    ) {
        let expr = random_expr(&mut StdRng::seed_from_u64(expr_seed), depth);
        let mut machines: Vec<AttributeVector> = seeds.iter().map(|&s| machine(s)).collect();
        check_parity(&machines, &FeasibilityIndex::new(machines.clone()), &expr);

        // Add machines.
        machines.extend(extra.iter().map(|&s| machine(s)));
        let index = FeasibilityIndex::new(machines.clone());
        check_parity(&machines, &index, &expr);

        // Crash every third machine: sampling parity with the aliveness
        // exclusion on the grown population.
        let set = ConstraintSet::from_expr(expr.clone());
        let mut rng_a = StdRng::seed_from_u64(rng_seed);
        let got = sample_cold(&index, &set, 8, &mut rng_a, |w| w % 3 == 0);
        let mut rng_b = StdRng::seed_from_u64(rng_seed);
        let want = naive_sample(&machines, &expr, 8, &mut rng_b, |w| w % 3 == 0);
        prop_assert_eq!(got, want, "post-churn sample diverged");

        // Remove the tail again (scale-down) and re-check.
        machines.truncate(seeds.len() / 2);
        if !machines.is_empty() {
            check_parity(&machines, &FeasibilityIndex::new(machines.clone()), &expr);
        }
    }
}
