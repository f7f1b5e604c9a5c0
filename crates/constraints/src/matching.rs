//! Feasibility matching between constraint sets and machine populations.
//!
//! Schedulers constantly ask "which workers can run this task?" — for probe
//! placement, for work stealing, and for Phoenix's supply estimation. The
//! [`FeasibilityIndex`] answers those queries over a fixed machine
//! population.
//!
//! # Index structure
//!
//! Historically every cold query was an O(N) full-population scan. At the
//! paper's cluster sizes (5,000–19,000 workers) that scan *is* the hot
//! kernel of constraint-aware scheduling, so the index now builds, once at
//! construction:
//!
//! * **per-attribute posting lists** — for every [`ConstraintKind`], the
//!   machine ids grouped by distinct attribute value, values sorted. A
//!   constraint `attr op value` then denotes a *contiguous range* of value
//!   groups (binary search, O(log m) for m distinct values), so counting
//!   its matches is O(1) arithmetic on the group offsets;
//! * **fixed-width bitset blocks** — for kinds with few distinct values
//!   (every realistic profile: core counts, kernel versions, platform
//!   generations, ... have a handful each), cumulative bitsets over the
//!   sorted value groups. Any constraint's match set is then two words
//!   `prefix[hi] & !prefix[lo]` per 64 machines, and a whole
//!   [`ConstraintSet`] resolves by word-wise intersection — O(N/64) per
//!   constraint instead of O(N) predicate evaluations.
//!
//! Kinds with pathologically many distinct values (beyond
//! [`PREFIX_VALUE_CAP`], impossible with the shipped population profiles
//! but reachable through the public API) skip the bitset blocks and fall
//! back to scattering/filtering their posting range, bounding index memory
//! by O(N) per kind.
//!
//! Per-set and per-constraint results are memoized exactly as before (the
//! synthesizer produces a bounded variety of sets, so the caches converge
//! quickly); the posting lists make the *cold* path cheap, the caches make
//! the warm path O(1).
//!
//! Every query is a pure function of the population, so the rewrite is
//! digest-neutral: [`FeasibilityIndex::sample_feasible`] consumes the
//! exact same RNG draws as the historical scan-based implementation (the
//! equivalence is pinned by the `feasibility_oracle` proptest suite and the
//! golden-trace snapshots).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::attr::AttributeVector;
use crate::constraint::{Constraint, ConstraintKind, ConstraintOp, ConstraintSet};
use crate::expr::ConstraintExpr;

/// Fraction of `machines` that satisfy `set`, in `[0, 1]`.
///
/// Deliberately kept as a naive linear scan: this is the reference oracle
/// the indexed paths are property-tested against. Returns 0.0 for an empty
/// population.
pub fn feasible_fraction(machines: &[AttributeVector], set: &ConstraintSet) -> f64 {
    if machines.is_empty() {
        return 0.0;
    }
    let n = machines.iter().filter(|m| set.satisfied_by(m)).count();
    n as f64 / machines.len() as f64
}

/// Above this many distinct attribute values a kind skips its cumulative
/// bitset blocks (memory would grow O(m·N/64)) and answers from the posting
/// ranges alone. All shipped population profiles stay far below the cap.
const PREFIX_VALUE_CAP: usize = 64;

/// Sample sizes at or below this use a plain linear duplicate check in
/// [`FeasibilityIndex::sample_feasible`]; larger requests switch to a
/// reusable bitmask (O(1) membership instead of O(k) per draw). Both checks
/// are RNG-neutral — only wall-clock changes.
const SMALL_SAMPLE: usize = 16;

/// Number of set bits of `bits` at positions `[start, end)`: popcounts
/// the word span, masking the partial edge words, so ranges need not be
/// word-aligned. Empty when `start >= end`.
pub fn count_ones_in_range(bits: &[u64], start: usize, end: usize) -> usize {
    if start >= end {
        return 0;
    }
    let (first, last) = (start >> 6, (end - 1) >> 6);
    let mut count = 0usize;
    for (w, &word) in bits.iter().enumerate().take(last + 1).skip(first) {
        let mut word = word;
        if w == first {
            word &= u64::MAX << (start & 63);
        }
        if w == last {
            let tail = end & 63;
            if tail != 0 {
                word &= u64::MAX >> (64 - tail);
            }
        }
        count += word.count_ones() as usize;
    }
    count
}

/// One kind's posting lists: machine ids grouped by attribute value.
#[derive(Debug)]
struct KindPostings {
    /// Sorted distinct attribute values observed in the population.
    values: Vec<u64>,
    /// Group offsets into `postings`; group `i` holds the machines whose
    /// attribute equals `values[i]`. Length `values.len() + 1`.
    starts: Vec<u32>,
    /// Machine ids grouped by value (ascending id within each group).
    postings: Vec<u32>,
    /// Cumulative bitset blocks: `prefix[i]` (a `words`-sized slice of the
    /// flat vector) covers the machines in groups `0..i`. Length
    /// `(values.len() + 1) * words`. `None` when the kind has more than
    /// [`PREFIX_VALUE_CAP`] distinct values.
    prefix: Option<Vec<u64>>,
}

impl KindPostings {
    fn build(kind: ConstraintKind, machines: &[AttributeVector], words: usize) -> Self {
        let mut by_value: Vec<(u64, u32)> = machines
            .iter()
            .enumerate()
            .map(|(i, m)| (Constraint::machine_attribute(kind, m), i as u32))
            .collect();
        by_value.sort_unstable();
        let mut values = Vec::new();
        let mut starts: Vec<u32> = Vec::new();
        let mut postings = Vec::with_capacity(machines.len());
        for (value, id) in by_value {
            if values.last() != Some(&value) {
                values.push(value);
                starts.push(postings.len() as u32);
            }
            postings.push(id);
        }
        starts.push(postings.len() as u32);
        let prefix = (values.len() <= PREFIX_VALUE_CAP).then(|| {
            // prefix[i] = union of groups 0..i: copy the previous block,
            // then OR in group i's machines.
            let mut prefix = vec![0u64; (values.len() + 1) * words];
            for i in 0..values.len() {
                let (src, dst) = (i * words, (i + 1) * words);
                prefix.copy_within(src..src + words, dst);
                for &id in &postings[starts[i] as usize..starts[i + 1] as usize] {
                    prefix[dst + (id as usize >> 6)] |= 1u64 << (id & 63);
                }
            }
            prefix
        });
        KindPostings {
            values,
            starts,
            postings,
            prefix,
        }
    }

    /// The half-open range of value-group indices a constraint selects.
    fn group_range(&self, c: &Constraint) -> (usize, usize) {
        let m = self.values.len();
        match c.op {
            ConstraintOp::Lt => (0, self.values.partition_point(|&v| v < c.value)),
            ConstraintOp::Gt => (self.values.partition_point(|&v| v <= c.value), m),
            ConstraintOp::Eq => match self.values.binary_search(&c.value) {
                Ok(i) => (i, i + 1),
                Err(_) => (0, 0),
            },
        }
    }

    /// Number of machines a constraint matches, O(1) after the range.
    fn count(&self, range: (usize, usize)) -> usize {
        (self.starts[range.1] - self.starts[range.0]) as usize
    }

    /// The machine ids in a group range (grouped by value, not id-sorted).
    fn ids(&self, range: (usize, usize)) -> &[u32] {
        &self.postings[self.starts[range.0] as usize..self.starts[range.1] as usize]
    }

    /// Writes the constraint's match set into `out` (must be zeroed),
    /// OR-style. Uses the prefix blocks when available, else scatters the
    /// posting range.
    fn write_bits(&self, range: (usize, usize), words: usize, out: &mut [u64]) {
        if let Some(prefix) = &self.prefix {
            let lo = &prefix[range.0 * words..(range.0 + 1) * words];
            let hi = &prefix[range.1 * words..(range.1 + 1) * words];
            for ((out, &hi), &lo) in out.iter_mut().zip(hi).zip(lo) {
                *out |= hi & !lo;
            }
        } else {
            for &id in self.ids(range) {
                out[id as usize >> 6] |= 1u64 << (id & 63);
            }
        }
    }

    /// Intersects `acc` with the constraint's match set in place.
    fn intersect_bits(
        &self,
        c: &Constraint,
        range: (usize, usize),
        words: usize,
        machines: &[AttributeVector],
        acc: &mut [u64],
    ) {
        if let Some(prefix) = &self.prefix {
            let lo = &prefix[range.0 * words..(range.0 + 1) * words];
            let hi = &prefix[range.1 * words..(range.1 + 1) * words];
            for ((acc, &hi), &lo) in acc.iter_mut().zip(hi).zip(lo) {
                *acc &= hi & !lo;
            }
        } else {
            // Rare fallback (more distinct values than the bitset cap):
            // re-test only the surviving candidates.
            for (w, word) in acc.iter_mut().enumerate() {
                let mut bits = *word;
                while bits != 0 {
                    let bit = bits.trailing_zeros();
                    bits &= bits - 1;
                    let id = (w << 6) as u32 + bit;
                    if !c.satisfied_by(&machines[id as usize]) {
                        *word &= !(1u64 << bit);
                    }
                }
            }
        }
    }
}

/// A memoized per-set result: the sorted feasible id list plus the same set
/// as a bitset (one bit per machine index) for O(1) membership tests.
#[derive(Debug, Clone)]
struct CachedSet {
    ids: Arc<[u32]>,
    bits: Arc<[u64]>,
}

/// Memoizing feasibility oracle over a fixed machine population, backed by
/// per-attribute posting lists and bitset blocks (see the module docs).
///
/// Machines are addressed by their dense index in the population (the same
/// index the simulator uses as worker id).
#[derive(Debug)]
pub struct FeasibilityIndex {
    machines: Vec<AttributeVector>,
    /// Bitset width in 64-bit words: `machines.len().div_ceil(64)`.
    words: usize,
    /// One posting structure per [`ConstraintKind`], in `ALL` order.
    kinds: Vec<KindPostings>,
    set_cache: RefCell<HashMap<ConstraintSet, CachedSet>>,
    single_cache: RefCell<HashMap<Constraint, Arc<[u64]>>>,
    /// Reusable duplicate-guard bitmask for large sampling requests.
    sample_mask: RefCell<Vec<u64>>,
    /// Reusable exact-phase candidate pool (avoids an allocation per
    /// selective sampling call).
    sample_pool: RefCell<Vec<u32>>,
}

impl FeasibilityIndex {
    /// Builds an index over a machine population: one pass per constraint
    /// kind to group machines by attribute value and lay down the bitset
    /// blocks (O(kinds · N log N) once, at simulation construction).
    pub fn new(machines: Vec<AttributeVector>) -> Self {
        let words = machines.len().div_ceil(64);
        let kinds = ConstraintKind::ALL
            .iter()
            .map(|&kind| KindPostings::build(kind, &machines, words))
            .collect();
        FeasibilityIndex {
            machines,
            words,
            kinds,
            set_cache: RefCell::new(HashMap::new()),
            single_cache: RefCell::new(HashMap::new()),
            sample_mask: RefCell::new(Vec::new()),
            sample_pool: RefCell::new(Vec::new()),
        }
    }

    /// The machine population, by worker index.
    pub fn machines(&self) -> &[AttributeVector] {
        &self.machines
    }

    /// Number of machines in the population.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Direct feasibility check for one worker: a single word test when the
    /// set's bitset is already cached, a direct attribute comparison
    /// otherwise (one-off queries never pay for building the set's bitset).
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range for the population.
    pub fn is_feasible(&self, worker: u32, set: &ConstraintSet) -> bool {
        assert!(
            (worker as usize) < self.machines.len(),
            "worker {worker} out of range"
        );
        if let Some(hit) = self.set_cache.borrow().get(set) {
            return hit.bits[worker as usize >> 6] >> (worker & 63) & 1 != 0;
        }
        set.satisfied_by(&self.machines[worker as usize])
    }

    /// The all-machines bitset (every population bit set, tail trimmed).
    /// This is the universe `Not` complements against: the *full*
    /// population, never a liveness-filtered view — machine death is a
    /// sampling-time `exclude` concern, so a complement cannot resurrect a
    /// dead machine that the exclusion predicate would reject.
    fn universe_bits(&self) -> Vec<u64> {
        let mut bits = vec![!0u64; self.words];
        let rem = self.machines.len() % 64;
        if rem != 0 {
            bits[self.words - 1] = (1u64 << rem) - 1;
        }
        bits
    }

    /// Recursively compiles an expression to its match bitset:
    /// `All` = word-wise AND of child plans, `Any` = word-wise OR,
    /// `Not` = AND-NOT against the universe mask, leaves = posting-range
    /// lookups. Cost is O(N/64) per tree node plus the leaf range scatters
    /// — no per-machine predicate evaluation on any path.
    fn compute_expr_bits(&self, expr: &ConstraintExpr) -> Vec<u64> {
        match expr {
            ConstraintExpr::Leaf(c) => {
                let mut bits = vec![0u64; self.words];
                let postings = &self.kinds[c.kind.index()];
                postings.write_bits(postings.group_range(c), self.words, &mut bits);
                bits
            }
            ConstraintExpr::Vector(v) => {
                let mut acc = self.universe_bits();
                for c in v.to_constraints() {
                    let mut bits = vec![0u64; self.words];
                    let postings = &self.kinds[c.kind.index()];
                    postings.write_bits(postings.group_range(&c), self.words, &mut bits);
                    for (a, b) in acc.iter_mut().zip(&bits) {
                        *a &= b;
                    }
                }
                acc
            }
            ConstraintExpr::All(children) => {
                let mut acc = self.universe_bits();
                for child in children {
                    let bits = self.compute_expr_bits(child);
                    for (a, b) in acc.iter_mut().zip(&bits) {
                        *a &= b;
                    }
                }
                acc
            }
            ConstraintExpr::Any(children) => {
                // Empty Any stays all-zero: the false constant.
                let mut acc = vec![0u64; self.words];
                for child in children {
                    let bits = self.compute_expr_bits(child);
                    for (a, b) in acc.iter_mut().zip(&bits) {
                        *a |= b;
                    }
                }
                acc
            }
            ConstraintExpr::Not(child) => {
                let child_bits = self.compute_expr_bits(child);
                let mut acc = self.universe_bits();
                for (a, b) in acc.iter_mut().zip(&child_bits) {
                    *a &= !b;
                }
                acc
            }
        }
    }

    /// Computes (uncached) the bitset of machines satisfying `set`.
    fn compute_bits(&self, set: &ConstraintSet) -> Vec<u64> {
        let mut bits = vec![0u64; self.words];
        if self.machines.is_empty() {
            return bits;
        }
        // Expression sets compile recursively; this must run before the
        // is_empty() shortcut (a pure-Not tree has an empty projection but
        // is not the unconstrained set).
        if let Some(expr) = set.expr() {
            return self.compute_expr_bits(expr);
        }
        if set.is_empty() {
            bits.fill(!0u64);
            let rem = self.machines.len() % 64;
            if rem != 0 {
                bits[self.words - 1] = (1u64 << rem) - 1;
            }
            return bits;
        }
        // Resolve every constraint to its value-group range, then intersect
        // most-selective first so the fallback paths touch few candidates.
        let mut ranges: Vec<(usize, &Constraint, (usize, usize))> = set
            .iter()
            .map(|c| {
                let postings = &self.kinds[c.kind.index()];
                let range = postings.group_range(c);
                (postings.count(range), c, range)
            })
            .collect();
        ranges.sort_by_key(|&(count, _, _)| count);
        let mut first = true;
        for (_, c, range) in ranges {
            let postings = &self.kinds[c.kind.index()];
            if first {
                postings.write_bits(range, self.words, &mut bits);
                first = false;
            } else {
                postings.intersect_bits(c, range, self.words, &self.machines, &mut bits);
            }
        }
        bits
    }

    /// Collects the set bits of a bitset as ascending machine ids.
    fn collect_ids(bits: &[u64]) -> Arc<[u32]> {
        let mut ids = Vec::with_capacity(bits.iter().map(|w| w.count_ones() as usize).sum());
        for (w, &word) in bits.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                ids.push((w << 6) as u32 + word.trailing_zeros());
                word &= word - 1;
            }
        }
        ids.into()
    }

    fn cached_set(&self, set: &ConstraintSet) -> CachedSet {
        if let Some(hit) = self.set_cache.borrow().get(set) {
            return hit.clone();
        }
        let bits = self.compute_bits(set);
        let cached = CachedSet {
            ids: Self::collect_ids(&bits),
            bits: bits.into(),
        };
        self.set_cache
            .borrow_mut()
            .insert(set.clone(), cached.clone());
        cached
    }

    /// All workers satisfying `set`, as a shared sorted slice.
    ///
    /// Cold queries intersect the per-attribute bitset blocks (O(N/64) per
    /// constraint) instead of scanning the population; subsequent queries
    /// are O(1) cache hits.
    pub fn feasible(&self, set: &ConstraintSet) -> Arc<[u32]> {
        self.cached_set(set).ids
    }

    /// The workers satisfying `set` as a bitset, one bit per machine index
    /// (same caching as [`FeasibilityIndex::feasible`]).
    pub fn feasible_bits(&self, set: &ConstraintSet) -> Arc<[u64]> {
        self.cached_set(set).bits
    }

    /// The workers satisfying a single constraint as a bitset, one bit per
    /// machine index, cached.
    pub fn feasible_single(&self, constraint: &Constraint) -> Arc<[u64]> {
        if let Some(hit) = self.single_cache.borrow().get(constraint) {
            return Arc::clone(hit);
        }
        let postings = &self.kinds[constraint.kind.index()];
        let range = postings.group_range(constraint);
        let mut bits = vec![0u64; self.words];
        postings.write_bits(range, self.words, &mut bits);
        let bits: Arc<[u64]> = bits.into();
        self.single_cache
            .borrow_mut()
            .insert(*constraint, Arc::clone(&bits));
        bits
    }

    /// Number of workers satisfying a single constraint: pure posting-range
    /// arithmetic, O(log m) with no materialization.
    pub fn count_single(&self, constraint: &Constraint) -> usize {
        let postings = &self.kinds[constraint.kind.index()];
        postings.count(postings.group_range(constraint))
    }

    /// Number of workers satisfying `set`.
    pub fn count_feasible(&self, set: &ConstraintSet) -> usize {
        self.feasible(set).len()
    }

    /// Number of workers in `[start, end)` satisfying `set` — the
    /// partitioned view federated domains use to skip remote domains with
    /// no feasible machine at all. Popcounts the cached feasibility bitset
    /// over the word span (O(range/64)), masking the edge words; shares
    /// the memo cache with [`FeasibilityIndex::feasible`].
    pub fn count_feasible_in_range(&self, set: &ConstraintSet, start: usize, end: usize) -> usize {
        let end = end.min(self.machines.len());
        if start >= end {
            return 0;
        }
        count_ones_in_range(&self.feasible_bits(set), start, end)
    }

    /// Like [`FeasibilityIndex::count_feasible`] but bypassing (and not
    /// populating) the memo cache: every call pays the bitset intersection
    /// and nothing is retained. For one-off queries over sets that will
    /// never recur — and for benchmarking the cold path honestly.
    pub fn count_feasible_uncached(&self, set: &ConstraintSet) -> usize {
        self.compute_bits(set)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Samples up to `k` *distinct* feasible workers uniformly at random,
    /// skipping workers for which `exclude` returns true.
    ///
    /// Uses rejection sampling against the whole population first (cheap for
    /// permissive sets) and falls back to an exact scan for selective sets.
    /// Returns fewer than `k` workers when fewer feasible non-excluded
    /// workers exist.
    ///
    /// The RNG draw sequence is part of the simulator's determinism
    /// contract: one `random_range` per rejection try, then one shuffle of
    /// the surviving exact-phase pool — regardless of how membership and
    /// duplicate checks are implemented internally.
    pub fn sample_feasible<R: Rng + ?Sized>(
        &self,
        set: &ConstraintSet,
        k: usize,
        rng: &mut R,
        mut exclude: impl FnMut(u32) -> bool,
    ) -> Vec<u32> {
        if k == 0 || self.machines.is_empty() {
            return Vec::new();
        }
        let n = self.machines.len();
        // Membership: a word test when the set's bitset is already cached
        // (the steady state — schedulers query the same bounded set
        // variety), a direct comparison otherwise. Identical answers either
        // way, so the draw sequence is unaffected.
        let cached_bits: Option<Arc<[u64]>> = self
            .set_cache
            .borrow()
            .get(set)
            .map(|hit| Arc::clone(&hit.bits));
        let feasible_bit = |idx: u32| match &cached_bits {
            Some(bits) => bits[idx as usize >> 6] >> (idx & 63) & 1 != 0,
            None => set.satisfied_by(&self.machines[idx as usize]),
        };
        // Duplicate guard: linear scan for small k (cheaper than touching
        // the mask at all), reusable bitmask beyond — the old
        // `picked.contains` made large placements O(k²).
        let use_mask = k > SMALL_SAMPLE;
        let mut mask = self.sample_mask.borrow_mut();
        if use_mask {
            mask.clear();
            mask.resize(self.words, 0);
        }
        let mut picked: Vec<u32> = Vec::with_capacity(k.min(n));
        // Rejection phase: a few tries per requested sample.
        let budget = k * 6 + 16;
        for _ in 0..budget {
            if picked.len() == k {
                return picked;
            }
            let idx = rng.random_range(0..n) as u32;
            let dup = if use_mask {
                mask[idx as usize >> 6] >> (idx & 63) & 1 != 0
            } else {
                picked.contains(&idx)
            };
            if dup || exclude(idx) {
                continue;
            }
            if feasible_bit(idx) {
                picked.push(idx);
                if use_mask {
                    mask[idx as usize >> 6] |= 1u64 << (idx & 63);
                }
            }
        }
        if picked.len() == k {
            return picked;
        }
        // Exact phase: sample without replacement from the cached feasible
        // list.
        let feasible = self.feasible(set);
        let mut pool = self.sample_pool.borrow_mut();
        pool.clear();
        pool.extend(feasible.iter().copied().filter(|&w| {
            let dup = if use_mask {
                mask[w as usize >> 6] >> (w & 63) & 1 != 0
            } else {
                picked.contains(&w)
            };
            !dup && !exclude(w)
        }));
        pool.shuffle(rng);
        for &w in pool.iter() {
            if picked.len() == k {
                break;
            }
            picked.push(w);
        }
        picked
    }

    /// Per-kind population supply: for each constraint kind, how many
    /// machines satisfy `probe`'s constraint of that kind (if present).
    /// O(log m) per constraint off the posting offsets.
    ///
    /// Useful for seeding the `CRV_Lookup_Table` supply side.
    pub fn kind_supply(&self, set: &ConstraintSet) -> Vec<(ConstraintKind, usize)> {
        set.iter().map(|c| (c.kind, self.count_single(c))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Isa;
    use crate::constraint::ConstraintOp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn population() -> Vec<AttributeVector> {
        (0..100u32)
            .map(|i| {
                AttributeVector::builder()
                    .isa(if i % 10 == 0 { Isa::Arm } else { Isa::X86 })
                    .num_cores(if i < 50 { 8 } else { 32 })
                    .build()
            })
            .collect()
    }

    fn big_cores() -> ConstraintSet {
        ConstraintSet::from_constraints(vec![Constraint::hard(
            ConstraintKind::NumCores,
            ConstraintOp::Gt,
            16,
        )])
    }

    #[test]
    fn feasible_fraction_counts_exactly() {
        let pop = population();
        assert!((feasible_fraction(&pop, &big_cores()) - 0.5).abs() < 1e-12);
        assert_eq!(feasible_fraction(&[], &big_cores()), 0.0);
        assert_eq!(
            feasible_fraction(&pop, &ConstraintSet::unconstrained()),
            1.0
        );
    }

    #[test]
    fn range_counts_match_filtered_lists() {
        let index = FeasibilityIndex::new(population());
        let set = big_cores();
        let all: Vec<u32> = index.feasible(&set).to_vec();
        // Every alignment case: word-interior, word-straddling, edge-exact.
        for (start, end) in [
            (0, 100),
            (0, 50),
            (50, 100),
            (3, 67),
            (64, 128),
            (63, 64),
            (70, 70),
        ] {
            let expected = all
                .iter()
                .filter(|&&w| (start..end.min(100)).contains(&(w as usize)))
                .count();
            assert_eq!(
                index.count_feasible_in_range(&set, start, end),
                expected,
                "[{start}, {end})"
            );
        }
        // Unconstrained sets count the whole slice.
        assert_eq!(
            index.count_feasible_in_range(&ConstraintSet::unconstrained(), 10, 30),
            20
        );
        assert_eq!(index.count_feasible_in_range(&set, 80, 20), 0);
    }

    #[test]
    fn feasible_lists_are_cached_and_correct() {
        let index = FeasibilityIndex::new(population());
        let a = index.feasible(&big_cores());
        let b = index.feasible(&big_cores());
        assert!(Arc::ptr_eq(&a, &b), "second query must hit the cache");
        assert_eq!(a.len(), 50);
        assert!(a.iter().all(|&w| w >= 50));
    }

    #[test]
    fn feasible_matches_naive_scan_on_operator_mix() {
        let pop = population();
        let index = FeasibilityIndex::new(pop.clone());
        for set in [
            ConstraintSet::unconstrained(),
            big_cores(),
            ConstraintSet::from_constraints(vec![
                Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Lt, 32),
                Constraint::hard(
                    ConstraintKind::Architecture,
                    ConstraintOp::Eq,
                    Isa::Arm as u64,
                ),
            ]),
            ConstraintSet::from_constraints(vec![
                Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Gt, 8),
                Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Lt, 64),
            ]),
        ] {
            let naive: Vec<u32> = pop
                .iter()
                .enumerate()
                .filter(|(_, m)| set.satisfied_by(m))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(index.count_feasible_uncached(&set), naive.len(), "{set}");
            assert_eq!(index.feasible(&set).to_vec(), naive, "{set}");
            assert_eq!(index.count_feasible(&set), naive.len(), "{set}");
            for w in 0..pop.len() as u32 {
                assert_eq!(
                    index.is_feasible(w, &set),
                    set.satisfied_by(&pop[w as usize]),
                    "{set} worker {w}"
                );
            }
        }
    }

    #[test]
    fn bitsets_agree_with_id_lists() {
        let index = FeasibilityIndex::new(population());
        let set = big_cores();
        let bits = index.feasible_bits(&set);
        let ids = index.feasible(&set);
        let from_bits: Vec<u32> = (0..index.len() as u32)
            .filter(|&w| bits[w as usize >> 6] >> (w & 63) & 1 != 0)
            .collect();
        assert_eq!(from_bits, ids.to_vec());
    }

    #[test]
    fn prefix_cap_fallback_matches_naive_scan() {
        // One distinct core count per machine: the NumCores kind exceeds
        // PREFIX_VALUE_CAP and must take the posting-range fallback.
        let pop: Vec<AttributeVector> = (0..200u32)
            .map(|i| AttributeVector::builder().num_cores(i + 1).build())
            .collect();
        let index = FeasibilityIndex::new(pop.clone());
        let set = ConstraintSet::from_constraints(vec![
            Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Gt, 50),
            Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Lt, 151),
        ]);
        let naive: Vec<u32> = pop
            .iter()
            .enumerate()
            .filter(|(_, m)| set.satisfied_by(m))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(naive.len(), 100);
        assert_eq!(index.feasible(&set).to_vec(), naive);
        let single = Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Gt, 150);
        assert_eq!(index.count_single(&single), 50);
        let bits = index.feasible_single(&single);
        assert_eq!(count_ones_in_range(&bits, 0, index.len()), 50);
        assert!((0..index.len()).all(|w| (bits[w >> 6] >> (w & 63) & 1 != 0) == (w >= 150)));
    }

    #[test]
    fn single_constraint_cache_counts() {
        let index = FeasibilityIndex::new(population());
        let arm = Constraint::hard(
            ConstraintKind::Architecture,
            ConstraintOp::Eq,
            Isa::Arm as u64,
        );
        assert_eq!(
            count_ones_in_range(&index.feasible_single(&arm), 0, index.len()),
            10
        );
        assert_eq!(index.count_single(&arm), 10);
        let supply = index.kind_supply(&ConstraintSet::from_constraints(vec![arm]));
        assert_eq!(supply, vec![(ConstraintKind::Architecture, 10)]);
    }

    #[test]
    fn sampling_returns_distinct_feasible_workers() {
        let index = FeasibilityIndex::new(population());
        let mut rng = StdRng::seed_from_u64(7);
        let sample = index.sample_feasible(&big_cores(), 20, &mut rng, |_| false);
        assert_eq!(sample.len(), 20);
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20, "samples must be distinct");
        assert!(sample.iter().all(|&w| w >= 50), "must be feasible");
    }

    #[test]
    fn sampling_respects_exclusion_and_small_pools() {
        let index = FeasibilityIndex::new(population());
        let mut rng = StdRng::seed_from_u64(9);
        // Exclude everything except worker 99.
        let sample = index.sample_feasible(&big_cores(), 5, &mut rng, |w| w != 99);
        assert_eq!(sample, vec![99]);
    }

    #[test]
    fn sampling_more_than_available_returns_all() {
        let index = FeasibilityIndex::new(population());
        let mut rng = StdRng::seed_from_u64(11);
        let arm_set = ConstraintSet::from_constraints(vec![Constraint::hard(
            ConstraintKind::Architecture,
            ConstraintOp::Eq,
            Isa::Arm as u64,
        )]);
        let sample = index.sample_feasible(&arm_set, 50, &mut rng, |_| false);
        assert_eq!(sample.len(), 10);
    }

    #[test]
    fn large_samples_use_the_mask_and_stay_distinct() {
        // k > SMALL_SAMPLE exercises the bitmask duplicate guard in both
        // the rejection and exact phases.
        let index = FeasibilityIndex::new(population());
        let mut rng = StdRng::seed_from_u64(13);
        let sample = index.sample_feasible(&ConstraintSet::unconstrained(), 80, &mut rng, |w| {
            w % 7 == 0
        });
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), sample.len(), "samples must be distinct");
        assert!(sample.iter().all(|&w| w % 7 != 0), "exclusion honored");
        assert_eq!(sample.len(), 80.min(population().len() - 15));
    }

    #[test]
    fn sampling_zero_or_empty_population() {
        let index = FeasibilityIndex::new(population());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(index
            .sample_feasible(&big_cores(), 0, &mut rng, |_| false)
            .is_empty());
        let empty = FeasibilityIndex::new(Vec::new());
        assert!(empty
            .sample_feasible(&big_cores(), 3, &mut rng, |_| false)
            .is_empty());
        assert!(empty.is_empty());
        assert!(empty.feasible(&big_cores()).is_empty());
        assert_eq!(empty.count_feasible(&ConstraintSet::unconstrained()), 0);
    }

    #[test]
    fn infeasible_set_yields_empty_everything() {
        let index = FeasibilityIndex::new(population());
        let impossible = ConstraintSet::from_constraints(vec![Constraint::hard(
            ConstraintKind::NumCores,
            ConstraintOp::Gt,
            1_000,
        )]);
        assert_eq!(index.count_feasible(&impossible), 0);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(index
            .sample_feasible(&impossible, 4, &mut rng, |_| false)
            .is_empty());
    }
}
