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
//! * **per-attribute value groups** — for every [`ConstraintKind`], the
//!   machines grouped by distinct attribute value, values sorted. A
//!   constraint `attr op value` then denotes a *contiguous range* of value
//!   groups (binary search, O(log m) for m distinct values), so counting
//!   its matches is O(1) arithmetic on the group offsets. The groups are
//!   laid down by a counting sort (distinct values, group counts, then one
//!   pass over the machines), O(N log m) per kind;
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
//! but reachable through the public API) keep ascending-id posting lists
//! instead of bitset blocks and scatter/filter their posting range,
//! bounding index memory by O(N) per kind. A kind stores one form or the
//! other, never both.
//!
//! The index is a pure function of the population: it caches nothing, so
//! it is immutable, `Send + Sync`, and every query costs the same on every
//! call. One-off queries over sets that never recur (trace calibration
//! draws tens of thousands of distinct candidate sets) ask it directly.
//!
//! # The set table
//!
//! A simulation asks about a bounded variety of sets again and again: a few
//! hundred distinct sets per run, and every probe of a job asks about the
//! same one. The per-run [`SetTable`] interns each distinct set once into a
//! `Copy` [`SetId`]; from then on every query is a vector index, never a
//! hash of the set. Per set it keeps the feasible bitset and its popcount,
//! built over the index on the first count, bits or walk, and the sorted id
//! list, built only when a caller walks the whole set ([`SetTable::ids`] or
//! the exact phase of a cluster-wide [`SetTable::sample`]). Counting,
//! membership, bitset walks ([`ones`]) and the exact phase of a sample
//! scoped to a federated domain never build the list: the domain's exact
//! phase walks the bitset words over the domain's range. So at 100,000
//! machines most sets cost N/8 bytes rather than N/8 plus 4 bytes per
//! feasible machine, and a federated run pays per sample only for its
//! domain's words.
//! [`SetTable::stats`] reports what the table holds.
//!
//! Every answer is a pure function of the population, so none of this
//! changes a digest: [`SetTable::sample`] consumes the exact same RNG draws
//! as the historical scan-based implementation (the equivalence is pinned
//! by the `feasibility_oracle` proptest suite and the golden-trace
//! snapshots).

use std::collections::HashMap;
use std::ops::Range;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::attr::AttributeVector;
use crate::constraint::{Constraint, ConstraintKind, ConstraintOp, ConstraintSet};
use crate::expr::ConstraintExpr;

/// Fraction of `machines` that satisfy `set`, in `[0, 1]`.
///
/// Deliberately kept as a naive linear scan: this is the test oracle the
/// indexed paths are property-tested against, and it is on no production
/// path — trace calibration and the Fig. 6 supply curve use
/// [`FeasibilityIndex::feasible_fraction`], which returns the same
/// `f64` bit for bit. Returns 0.0 for an empty population.
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

/// The words of `bits` holding positions `[start, end)`, each paired with
/// its word index and with the bits outside the range cleared, so ranges
/// need not be word-aligned. `end` may run past the last word; an empty
/// range yields no word. The one edge-masking body behind
/// [`count_ones_in_range`] and [`ones_in_range`].
fn range_words(bits: &[u64], start: usize, end: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
    let end = end.min(bits.len() << 6);
    let words = if start < end {
        start >> 6..end.div_ceil(64)
    } else {
        0..0
    };
    let (first, last) = (words.start, words.end.saturating_sub(1));
    // `end.wrapping_neg() & 63` is 64 - end % 64, or 0 for an aligned end.
    let (head, tail) = (
        u64::MAX << (start & 63),
        u64::MAX >> (end.wrapping_neg() & 63),
    );
    bits[words.clone()]
        .iter()
        .zip(words)
        .map(move |(&word, w)| {
            let mut word = word;
            if w == first {
                word &= head;
            }
            if w == last {
                word &= tail;
            }
            (w, word)
        })
}

/// Number of set bits of `bits` at positions `[start, end)`: popcounts
/// the word span, masking the partial edge words. Empty when
/// `start >= end`.
pub fn count_ones_in_range(bits: &[u64], start: usize, end: usize) -> usize {
    range_words(bits, start, end)
        .map(|(_, word)| word.count_ones() as usize)
        .sum()
}

/// The distinct values of `attrs`, ascending. Keeps a sorted vector and
/// inserts each value not seen yet: O(N log m) for the handful of values
/// a realistic kind has. A kind past [`PREFIX_VALUE_CAP`] values switches
/// to sorting a copy (O(N log N)), so insertions never cost O(m) each for
/// large m.
fn distinct_sorted(attrs: &[u64]) -> Vec<u64> {
    let mut values: Vec<u64> = Vec::new();
    for &a in attrs {
        if let Err(pos) = values.binary_search(&a) {
            if values.len() == PREFIX_VALUE_CAP {
                let mut all = attrs.to_vec();
                all.sort_unstable();
                all.dedup();
                return all;
            }
            values.insert(pos, a);
        }
    }
    values
}

/// One kind's posting lists: machine ids grouped by attribute value.
#[derive(Debug)]
struct KindPostings {
    /// Sorted distinct attribute values observed in the population.
    values: Vec<u64>,
    /// Group offsets: group `i` holds the machines whose attribute equals
    /// `values[i]`, and `starts[i + 1] - starts[i]` of them. Length
    /// `values.len() + 1`.
    starts: Vec<u32>,
    /// The group members, in whichever one form answers range queries.
    members: Members,
}

/// How a kind stores its value groups: prefix blocks or posting lists,
/// never both (a query reads only one of them).
#[derive(Debug, PartialEq)]
enum Members {
    /// Cumulative bitset blocks: block `i` (a `words`-sized slice of the
    /// flat vector) covers the machines in groups `0..i`. Length
    /// `(values.len() + 1) * words`. Every kind with at most
    /// [`PREFIX_VALUE_CAP`] distinct values.
    Prefix(Vec<u64>),
    /// Machine ids grouped by value, ascending id within each group,
    /// indexed by `starts`. Kinds past [`PREFIX_VALUE_CAP`].
    Postings(Vec<u32>),
}

impl KindPostings {
    /// Groups the machines by this kind's attribute with a counting sort:
    /// collect the sorted distinct values and count each group. A kind
    /// within [`PREFIX_VALUE_CAP`] then ORs each machine into its group's
    /// block and accumulates the blocks; a kind past it scatters ids into
    /// posting lists in ascending order. O(N log m) for m distinct values.
    fn build(kind: ConstraintKind, machines: &[AttributeVector], words: usize) -> Self {
        let attrs: Vec<u64> = machines
            .iter()
            .map(|m| Constraint::machine_attribute(kind, m))
            .collect();
        let values = distinct_sorted(&attrs);
        let groups: Vec<u32> = attrs
            .iter()
            .map(|a| values.binary_search(a).expect("value was collected") as u32)
            .collect();
        let mut starts = vec![0u32; values.len() + 1];
        for &g in &groups {
            starts[g as usize + 1] += 1;
        }
        for i in 0..values.len() {
            starts[i + 1] += starts[i];
        }
        let members = if values.len() <= PREFIX_VALUE_CAP {
            // Block g + 1 starts as group g's machines; a running OR over
            // the blocks then makes block i the union of groups 0..i.
            let mut prefix = vec![0u64; (values.len() + 1) * words];
            for (id, &g) in groups.iter().enumerate() {
                prefix[(g as usize + 1) * words + (id >> 6)] |= 1u64 << (id & 63);
            }
            for i in words..prefix.len() {
                prefix[i] |= prefix[i - words];
            }
            Members::Prefix(prefix)
        } else {
            let mut cursor = starts.clone();
            let mut postings = vec![0u32; machines.len()];
            for (id, &g) in groups.iter().enumerate() {
                let slot = &mut cursor[g as usize];
                postings[*slot as usize] = id as u32;
                *slot += 1;
            }
            Members::Postings(postings)
        };
        KindPostings {
            values,
            starts,
            members,
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

    /// Writes the constraint's match set into `out` (must be zeroed),
    /// OR-style: two prefix blocks, or a scatter of the posting range.
    fn write_bits(&self, range: (usize, usize), words: usize, out: &mut [u64]) {
        match &self.members {
            Members::Prefix(prefix) => {
                let lo = &prefix[range.0 * words..(range.0 + 1) * words];
                let hi = &prefix[range.1 * words..(range.1 + 1) * words];
                for ((out, &hi), &lo) in out.iter_mut().zip(hi).zip(lo) {
                    *out |= hi & !lo;
                }
            }
            Members::Postings(postings) => {
                let ids = &postings[self.starts[range.0] as usize..self.starts[range.1] as usize];
                for &id in ids {
                    out[id as usize >> 6] |= 1u64 << (id & 63);
                }
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
        match &self.members {
            Members::Prefix(prefix) => {
                let lo = &prefix[range.0 * words..(range.0 + 1) * words];
                let hi = &prefix[range.1 * words..(range.1 + 1) * words];
                for ((acc, &hi), &lo) in acc.iter_mut().zip(hi).zip(lo) {
                    *acc &= hi & !lo;
                }
            }
            Members::Postings(_) => {
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
}

/// The set bits of a run of masked words as ascending machine ids: a word
/// at a time, lowest bit first. See [`ones_in_range`].
struct Ones<I> {
    /// The words still to load, with their word indices.
    words: I,
    /// Word index of `word`.
    base: usize,
    /// The current word, with the bits already yielded cleared.
    word: u64,
}

impl<I: Iterator<Item = (usize, u64)>> Iterator for Ones<I> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.word == 0 {
            (self.base, self.word) = self.words.next()?;
        }
        let id = (self.base << 6) as u32 + self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(id)
    }
}

/// Walks the set bits of `bits` at positions `[start, end)` in ascending
/// order, masking the partial edge words: the ids [`ones`] yields in the
/// range, found in O(range/64) words. `end` may run past the last word.
fn ones_in_range(bits: &[u64], start: usize, end: usize) -> impl Iterator<Item = u32> + '_ {
    Ones {
        words: range_words(bits, start, end),
        base: 0,
        word: 0,
    }
}

/// Appends to `pool` the set bits of `bits` in `span` that `keep` accepts,
/// in ascending order: the exact-phase pool of a sample narrower than the
/// population. Kept out of line: inlined into [`SetTable::sample`], the
/// walk slowed full-population sampling, whose exact-phase filter loop
/// dominates at a few thousand machines, by 10–25% of the `sample` profile
/// scope on the 5,000-machine, 50,000-job ladder row.
#[inline(never)]
fn extend_from_range(
    pool: &mut Vec<u32>,
    bits: &[u64],
    span: Range<u32>,
    mut keep: impl FnMut(u32) -> bool,
) {
    pool.extend(ones_in_range(bits, span.start as usize, span.end as usize).filter(|&w| keep(w)));
}

/// Walks the set bits of `bits` in ascending order, yielding each bit's
/// index (a machine id for the index's bitsets). Walking a set's bitset
/// this way visits the same ids in the same order as its sorted id list,
/// without building the list.
pub fn ones(bits: &[u64]) -> impl Iterator<Item = u32> + '_ {
    ones_in_range(bits, 0, bits.len() << 6)
}

/// Feasibility oracle over a fixed machine population, backed by
/// per-attribute posting lists and bitset blocks (see the module docs).
/// Pure: it caches nothing, so it is immutable and `Send + Sync`.
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
}

impl FeasibilityIndex {
    /// Builds an index over a machine population: per constraint kind, a
    /// counting sort groups machines by attribute value and the bitset
    /// blocks are laid down over the groups (O(kinds · N log m) for m
    /// distinct values per kind, once, at simulation construction).
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
            ConstraintExpr::Leaf(c) => self.feasible_single(c),
            ConstraintExpr::Vector(v) => {
                let mut acc = self.universe_bits();
                for c in v.to_constraints() {
                    let bits = self.feasible_single(&c);
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

    /// The machines satisfying `set` as a bitset, one bit per machine
    /// index: O(N/64) per constraint. [`ones`] walks it in ascending id
    /// order.
    pub fn feasible_bits(&self, set: &ConstraintSet) -> Vec<u64> {
        if self.machines.is_empty() {
            return Vec::new();
        }
        // Expression sets compile recursively; this must run before the
        // is_empty() shortcut (a pure-Not tree has an empty projection but
        // is not the unconstrained set).
        if let Some(expr) = set.expr() {
            return self.compute_expr_bits(expr);
        }
        if set.is_empty() {
            return self.universe_bits();
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
        let mut bits = vec![0u64; self.words];
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

    /// Number of machines satisfying `set`: the popcount of
    /// [`FeasibilityIndex::feasible_bits`].
    pub fn count_feasible(&self, set: &ConstraintSet) -> usize {
        self.feasible_bits(set)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Fraction of the population satisfying `set`:
    /// [`FeasibilityIndex::count_feasible`] over [`FeasibilityIndex::len`].
    /// The counts equal the naive scan's, so the result is bit-identical to
    /// [`feasible_fraction`] over [`FeasibilityIndex::machines`]. 0.0 for
    /// an empty population.
    pub fn feasible_fraction(&self, set: &ConstraintSet) -> f64 {
        if self.machines.is_empty() {
            return 0.0;
        }
        self.count_feasible(set) as f64 / self.machines.len() as f64
    }

    /// The machines satisfying a single constraint as a bitset, one bit per
    /// machine index: two prefix blocks, or a scatter of the posting range.
    pub fn feasible_single(&self, constraint: &Constraint) -> Vec<u64> {
        let postings = &self.kinds[constraint.kind.index()];
        let mut bits = vec![0u64; self.words];
        postings.write_bits(postings.group_range(constraint), self.words, &mut bits);
        bits
    }

    /// Number of machines satisfying a single constraint: pure
    /// posting-range arithmetic, O(log m) with no materialization.
    pub fn count_single(&self, constraint: &Constraint) -> usize {
        let postings = &self.kinds[constraint.kind.index()];
        postings.count(postings.group_range(constraint))
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

/// Sample sizes at or below this use a plain linear duplicate check in
/// [`SetTable::sample`]; larger requests switch to a reusable bitmask (O(1)
/// membership instead of O(k) per draw). Both checks are RNG-neutral —
/// only wall-clock changes.
const SMALL_SAMPLE: usize = 16;

/// Handle of a constraint set interned in a [`SetTable`]: the dense index
/// of its entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SetId(u32);

impl SetId {
    /// The dense index of the set in its table (for side tables kept
    /// parallel to it).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a [`SetTable`] holds, in sets and in bytes ([`SetTable::stats`]).
/// A pure function of the queries asked, so a replayed run reports the
/// same stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Sets whose bitset and popcount have been built.
    pub sets: usize,
    /// Sets whose sorted id list has been built.
    pub sets_with_ids: usize,
    /// Bytes of the built bitsets.
    pub bitset_bytes: usize,
    /// Bytes of the built id lists.
    pub id_bytes: usize,
}

/// One interned set and what has been built for it so far.
#[derive(Debug)]
struct Entry {
    set: ConstraintSet,
    /// The feasible machines, one bit per machine index.
    bits: Option<Box<[u64]>>,
    /// Popcount of `bits` (0 until they are built).
    count: usize,
    /// The feasible machine ids, ascending.
    ids: Option<Box<[u32]>>,
}

impl Entry {
    /// The set's bitset, built over `index` on first use.
    fn bits(&mut self, index: &FeasibilityIndex) -> &[u64] {
        if self.bits.is_none() {
            let bits = index.feasible_bits(&self.set);
            self.count = bits.iter().map(|w| w.count_ones() as usize).sum();
            self.bits = Some(bits.into());
        }
        self.bits.as_deref().expect("bits were just built")
    }

    /// Whether machine `w` satisfies the set: a word test once the bitset
    /// is built, a direct comparison before (same answer either way).
    fn contains(&self, index: &FeasibilityIndex, w: u32) -> bool {
        match &self.bits {
            Some(bits) => bits[w as usize >> 6] >> (w & 63) & 1 != 0,
            None => self.set.satisfied_by(&index.machines()[w as usize]),
        }
    }

    /// The set's sorted id list, collected from its bitset on first use.
    fn ids(&mut self, index: &FeasibilityIndex) -> &[u32] {
        if self.ids.is_none() {
            // Build the bitset first: its popcount sizes the list exactly.
            self.bits(index);
            let mut ids = Vec::with_capacity(self.count);
            ids.extend(ones(self.bits(index)));
            self.ids = Some(ids.into());
        }
        self.ids.as_deref().expect("ids were just built")
    }
}

/// The constraint sets of one run, interned into [`SetId`]s, with their
/// feasibility results memoized over a [`FeasibilityIndex`] (see the
/// module docs). Every query takes the index the table's results are built
/// over; a table must be used with one index only. It never evicts: every
/// interned set belongs to a job of the run.
#[derive(Debug, Default)]
pub struct SetTable {
    handles: HashMap<ConstraintSet, SetId>,
    entries: Vec<Entry>,
    /// Reusable duplicate guard for samples larger than `SMALL_SAMPLE`.
    mask: Vec<u64>,
    /// Reusable exact-phase candidate pool.
    pool: Vec<u32>,
}

impl SetTable {
    /// The handle of `set`, interning it on first sight. Equal sets get
    /// the same handle. Builds nothing.
    pub fn intern(&mut self, set: &ConstraintSet) -> SetId {
        if let Some(&id) = self.handles.get(set) {
            return id;
        }
        let id = SetId(u32::try_from(self.entries.len()).expect("fewer than 2^32 sets"));
        self.entries.push(Entry {
            set: set.clone(),
            bits: None,
            count: 0,
            ids: None,
        });
        self.handles.insert(set.clone(), id);
        id
    }

    /// The set behind a handle.
    pub fn get(&self, id: SetId) -> &ConstraintSet {
        &self.entries[id.index()].set
    }

    /// Number of machines satisfying the set: the popcount stored with its
    /// bitset. Builds the bitset on first use, never the id list.
    pub fn count(&mut self, index: &FeasibilityIndex, id: SetId) -> usize {
        let entry = &mut self.entries[id.index()];
        entry.bits(index);
        entry.count
    }

    /// The machines satisfying the set as a bitset, one bit per machine
    /// index, built on first use. [`ones`] walks it in ascending id order.
    pub fn bits(&mut self, index: &FeasibilityIndex, id: SetId) -> &[u64] {
        self.entries[id.index()].bits(index)
    }

    /// The machines satisfying the set as a sorted id list. The first call
    /// builds the list from the bitset: O(N/64 + feasible) once, O(1)
    /// after. Callers that only count or test membership should use
    /// [`SetTable::count`] or [`SetTable::contains`], which never build it.
    pub fn ids(&mut self, index: &FeasibilityIndex, id: SetId) -> &[u32] {
        self.entries[id.index()].ids(index)
    }

    /// Whether machine `worker` satisfies the set: a word test when the
    /// set's bitset is built, a direct attribute comparison otherwise (a
    /// one-off membership test never pays for building the bitset).
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range for the population.
    pub fn contains(&self, index: &FeasibilityIndex, id: SetId, worker: u32) -> bool {
        assert!(
            (worker as usize) < index.len(),
            "worker {worker} out of range"
        );
        self.entries[id.index()].contains(index, worker)
    }

    /// Number of machines in `[start, end)` satisfying the set — the
    /// partitioned view federated domains use to skip remote domains with
    /// no feasible machine at all. Popcounts the bitset over the word span
    /// (O(range/64)), masking the edge words; bits past the population are
    /// never set, so `end` may run past it.
    pub fn count_in_range(
        &mut self,
        index: &FeasibilityIndex,
        id: SetId,
        start: usize,
        end: usize,
    ) -> usize {
        count_ones_in_range(self.bits(index, id), start, end)
    }

    /// Samples up to `k` *distinct* machines in `span` satisfying the set,
    /// uniformly at random, skipping machines for which `exclude` returns
    /// true. Cluster-wide callers pass `0..n`; a federated domain passes
    /// its worker range. `span.end` is clamped to the population size.
    ///
    /// Uses rejection sampling against the whole population first (cheap for
    /// permissive sets) and falls back to an exact phase for selective sets.
    /// Returns fewer than `k` machines when fewer feasible non-excluded
    /// machines exist in `span`.
    ///
    /// The RNG draw sequence is part of the simulator's determinism
    /// contract: one `random_range(0..n)` per rejection try (a draw outside
    /// `span` counts as a rejected try), then one shuffle of the exact-phase
    /// pool — the ascending feasible ids in `span` that are neither picked
    /// nor excluded. Passing a range is therefore draw-identical to passing
    /// `0..n` with an `exclude` that rejects ids outside it; only the exact
    /// phase's walk shrinks, to the set's bitset words over `span`.
    ///
    /// A call that the rejection phase satisfies builds neither the set's
    /// bitset nor its id list. The exact phase builds the bitset; only a
    /// full-population `span` also builds (and then reuses) the sorted id
    /// list, while a narrower one walks the bitset words over `span` in
    /// ascending order. `exclude` is called only for ids inside `span`.
    pub fn sample<R: Rng + ?Sized>(
        &mut self,
        index: &FeasibilityIndex,
        id: SetId,
        k: usize,
        span: Range<u32>,
        rng: &mut R,
        mut exclude: impl FnMut(u32) -> bool,
    ) -> Vec<u32> {
        let n = index.len();
        if k == 0 || n == 0 {
            return Vec::new();
        }
        let end = span.end.min(n as u32);
        let span = span.start.min(end)..end;
        let SetTable {
            entries,
            mask,
            pool,
            ..
        } = self;
        let entry = &mut entries[id.index()];
        // Duplicate guard: linear scan for small k (cheaper than touching
        // the mask at all), reusable bitmask beyond — a plain
        // `picked.contains` would make large placements O(k²).
        let use_mask = k > SMALL_SAMPLE;
        if use_mask {
            mask.clear();
            mask.resize(n.div_ceil(64), 0);
        }
        let is_dup = |mask: &[u64], picked: &[u32], w: u32| {
            if use_mask {
                mask[w as usize >> 6] >> (w & 63) & 1 != 0
            } else {
                picked.contains(&w)
            }
        };
        let mut picked: Vec<u32> = Vec::with_capacity(k.min(n));
        // Rejection phase: a few tries per requested sample. Membership's
        // two forms give the same answer, so the draws do not depend on
        // whether the bitset is built yet.
        let budget = k * 6 + 16;
        for _ in 0..budget {
            if picked.len() == k {
                return picked;
            }
            let w = rng.random_range(0..n) as u32;
            if is_dup(mask, &picked, w) || !span.contains(&w) || exclude(w) {
                continue;
            }
            if entry.contains(index, w) {
                picked.push(w);
                if use_mask {
                    mask[w as usize >> 6] |= 1u64 << (w & 63);
                }
            }
        }
        if picked.len() == k {
            return picked;
        }
        // Exact phase: sample without replacement from the span's ascending
        // feasible ids. A full-cluster span reads the set's cached sorted
        // list, which is hot at a few thousand machines. A narrower span (a
        // federated domain) walks the bitset words over the span instead:
        // a list would hold the whole cluster's ids to serve one slice.
        pool.clear();
        if span.len() == n {
            pool.extend(
                entry
                    .ids(index)
                    .iter()
                    .copied()
                    .filter(|&w| !is_dup(mask, &picked, w) && !exclude(w)),
            );
        } else {
            extend_from_range(pool, entry.bits(index), span, |w| {
                !is_dup(mask, &picked, w) && !exclude(w)
            });
        }
        pool.shuffle(rng);
        let missing = k - picked.len();
        picked.extend(pool.iter().take(missing));
        picked
    }

    /// What the table holds: sets with a built bitset, sets with a built id
    /// list, and the bytes of both.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for entry in &self.entries {
            if let Some(bits) = &entry.bits {
                stats.sets += 1;
                stats.bitset_bytes += std::mem::size_of_val(&**bits);
            }
            if let Some(ids) = &entry.ids {
                stats.sets_with_ids += 1;
                stats.id_bytes += std::mem::size_of_val(&**ids);
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{Isa, PlatformFamily};
    use crate::constraint::ConstraintOp;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The sort-based build the counting sort replaced, kept as the oracle
    /// for [`KindPostings::build`]. It lays down both the posting lists
    /// and the prefix blocks, as the index once stored them.
    struct SortBuild {
        values: Vec<u64>,
        starts: Vec<u32>,
        postings: Vec<u32>,
        prefix: Option<Vec<u64>>,
    }

    fn build_by_sort(
        kind: ConstraintKind,
        machines: &[AttributeVector],
        words: usize,
    ) -> SortBuild {
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
        SortBuild {
            values,
            starts,
            postings,
            prefix,
        }
    }

    /// Asserts the counting build equals the sort-based build on every
    /// kind: values, starts and prefix blocks always, and the posting
    /// lists of the kinds past [`PREFIX_VALUE_CAP`] (the only kinds that
    /// keep them).
    fn assert_builds_agree(machines: &[AttributeVector]) {
        let n = machines.len();
        let words = n.div_ceil(64);
        for kind in ConstraintKind::ALL {
            let fast = KindPostings::build(kind, machines, words);
            let slow = build_by_sort(kind, machines, words);
            assert_eq!(fast.values, slow.values, "{kind} values, n={n}");
            assert_eq!(fast.starts, slow.starts, "{kind} starts, n={n}");
            let expected = match slow.prefix {
                Some(prefix) => Members::Prefix(prefix),
                None => Members::Postings(slow.postings),
            };
            assert_eq!(fast.members, expected, "{kind} members, n={n}");
        }
    }

    /// A machine drawn from `spread` distinct values per attribute.
    fn spread_machine(bits: u64, spread: u64) -> AttributeVector {
        let pick = |shift: u32| (bits >> shift) % spread;
        AttributeVector::builder()
            .isa(Isa::ALL[(pick(0) % 3) as usize])
            .num_cores(1 + pick(8) as u32)
            .memory_gb(8 * (1 + pick(16) as u32))
            .num_disks(pick(24) as u32)
            .ethernet_mbps(1_000 * (1 + pick(32) as u32))
            .kernel_version(300 + pick(40) as u32)
            .cpu_clock_mhz(1_800 + 100 * pick(48) as u32)
            .platform(PlatformFamily(pick(56) as u8))
            .rack_size(10 * (1 + pick(4) as u32))
            .build()
    }

    proptest::proptest! {
        /// The counting build is byte-identical to the sort-based build:
        /// sizes straddle word boundaries, and value spreads run from one
        /// value per kind to more than `PREFIX_VALUE_CAP` (no-prefix path).
        #[test]
        fn counting_build_matches_sort_build(
            seeds in proptest::prop::collection::vec(0u64..u64::MAX, 0..300),
            spread in 1u64..200,
        ) {
            let machines: Vec<AttributeVector> =
                seeds.iter().map(|&s| spread_machine(s, spread)).collect();
            assert_builds_agree(&machines);
        }
    }

    #[test]
    fn counting_build_edge_cases() {
        // Empty population, one machine, all-equal attributes.
        assert_builds_agree(&[]);
        assert_builds_agree(&[spread_machine(12_345, 7)]);
        assert_builds_agree(&vec![spread_machine(99, 5); 130]);
        // Sizes that are not a multiple of 64, around word boundaries.
        for n in [63, 65, 127, 129, 1_000] {
            let machines: Vec<AttributeVector> = (0..n as u64)
                .map(|i| spread_machine(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), 9))
                .collect();
            assert_builds_agree(&machines);
        }
        // Every machine distinct: past PREFIX_VALUE_CAP, no prefix blocks.
        let distinct: Vec<AttributeVector> = (0..500u32)
            .rev()
            .map(|i| AttributeVector::builder().num_cores(i + 1).build())
            .collect();
        let cores = KindPostings::build(ConstraintKind::NumCores, &distinct, 8);
        assert!(cores.values.len() > PREFIX_VALUE_CAP);
        assert!(matches!(cores.members, Members::Postings(_)));
        assert_builds_agree(&distinct);
        // Exactly at the cap keeps the prefix; one past it drops it.
        for n in [PREFIX_VALUE_CAP, PREFIX_VALUE_CAP + 1] {
            let machines: Vec<AttributeVector> = (0..n as u32)
                .map(|i| {
                    AttributeVector::builder()
                        .num_cores(i * 7 % n as u32)
                        .build()
                })
                .collect();
            let cores = KindPostings::build(ConstraintKind::NumCores, &machines, n.div_ceil(64));
            assert_eq!(
                matches!(cores.members, Members::Prefix(_)),
                n <= PREFIX_VALUE_CAP
            );
            assert_builds_agree(&machines);
        }
    }

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

    /// An index over `machines` and an empty set table.
    fn index_and_table(machines: Vec<AttributeVector>) -> (FeasibilityIndex, SetTable) {
        (FeasibilityIndex::new(machines), SetTable::default())
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
        let index = FeasibilityIndex::new(pop);
        assert_eq!(index.feasible_fraction(&big_cores()), 0.5);
        assert_eq!(
            FeasibilityIndex::new(Vec::new()).feasible_fraction(&big_cores()),
            0.0
        );
    }

    #[test]
    fn interning_an_equal_set_twice_returns_the_same_id() {
        let mut table = SetTable::default();
        let a = table.intern(&big_cores());
        let b = table.intern(&big_cores());
        let other = table.intern(&ConstraintSet::unconstrained());
        assert_eq!(a, b);
        assert_ne!(a, other);
        assert_eq!(table.get(a), &big_cores());
        // Interning builds nothing.
        assert_eq!(table.stats(), CacheStats::default());
    }

    #[test]
    fn range_counts_match_filtered_lists() {
        let (index, mut table) = index_and_table(population());
        let set = table.intern(&big_cores());
        let all: Vec<u32> = table.ids(&index, set).to_vec();
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
                table.count_in_range(&index, set, start, end),
                expected,
                "[{start}, {end})"
            );
        }
        // Unconstrained sets count the whole slice.
        let any = table.intern(&ConstraintSet::unconstrained());
        assert_eq!(table.count_in_range(&index, any, 10, 30), 20);
        assert_eq!(table.count_in_range(&index, set, 80, 20), 0);
    }

    #[test]
    fn feasible_lists_are_built_once_and_correct() {
        let (index, mut table) = index_and_table(population());
        let set = table.intern(&big_cores());
        let first = table.ids(&index, set).as_ptr();
        assert_eq!(
            table.ids(&index, set).as_ptr(),
            first,
            "second walk reuses the list"
        );
        let ids = table.ids(&index, set);
        assert_eq!(ids.len(), 50);
        assert!(ids.iter().all(|&w| w >= 50));
    }

    #[test]
    fn feasible_matches_naive_scan_on_operator_mix() {
        let pop = population();
        let (index, mut table) = index_and_table(pop.clone());
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
            assert_eq!(index.count_feasible(&set), naive.len(), "{set}");
            assert_eq!(ones(&index.feasible_bits(&set)).collect::<Vec<_>>(), naive);
            let id = table.intern(&set);
            assert_eq!(table.ids(&index, id).to_vec(), naive, "{set}");
            assert_eq!(table.count(&index, id), naive.len(), "{set}");
            for w in 0..pop.len() as u32 {
                assert_eq!(
                    table.contains(&index, id, w),
                    set.satisfied_by(&pop[w as usize]),
                    "{set} worker {w}"
                );
            }
        }
    }

    #[test]
    fn bitsets_agree_with_id_lists() {
        let (index, mut table) = index_and_table(population());
        let set = table.intern(&big_cores());
        let bits = table.bits(&index, set).to_vec();
        assert_eq!(bits, index.feasible_bits(&big_cores()));
        let from_bits: Vec<u32> = (0..index.len() as u32)
            .filter(|&w| bits[w as usize >> 6] >> (w & 63) & 1 != 0)
            .collect();
        assert_eq!(from_bits, table.ids(&index, set).to_vec());
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
        assert_eq!(ones(&index.feasible_bits(&set)).collect::<Vec<_>>(), naive);
        let single = Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Gt, 150);
        assert_eq!(index.count_single(&single), 50);
        let bits = index.feasible_single(&single);
        assert_eq!(count_ones_in_range(&bits, 0, index.len()), 50);
        assert!((0..index.len()).all(|w| (bits[w >> 6] >> (w & 63) & 1 != 0) == (w >= 150)));
    }

    #[test]
    fn single_constraint_counts() {
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

    /// Samples `k` of `set` over the whole population of `index`.
    fn sample_all(
        index: &FeasibilityIndex,
        table: &mut SetTable,
        set: &ConstraintSet,
        k: usize,
        rng: &mut StdRng,
        exclude: impl FnMut(u32) -> bool,
    ) -> Vec<u32> {
        let id = table.intern(set);
        table.sample(index, id, k, 0..index.len() as u32, rng, exclude)
    }

    #[test]
    fn sampling_returns_distinct_feasible_workers() {
        let (index, mut table) = index_and_table(population());
        let mut rng = StdRng::seed_from_u64(7);
        let sample = sample_all(&index, &mut table, &big_cores(), 20, &mut rng, |_| false);
        assert_eq!(sample.len(), 20);
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20, "samples must be distinct");
        assert!(sample.iter().all(|&w| w >= 50), "must be feasible");
    }

    #[test]
    fn sampling_respects_exclusion_and_small_pools() {
        let (index, mut table) = index_and_table(population());
        let mut rng = StdRng::seed_from_u64(9);
        // Exclude everything except worker 99.
        let sample = sample_all(&index, &mut table, &big_cores(), 5, &mut rng, |w| w != 99);
        assert_eq!(sample, vec![99]);
    }

    #[test]
    fn sampling_more_than_available_returns_all() {
        let (index, mut table) = index_and_table(population());
        let mut rng = StdRng::seed_from_u64(11);
        let arm_set = ConstraintSet::from_constraints(vec![Constraint::hard(
            ConstraintKind::Architecture,
            ConstraintOp::Eq,
            Isa::Arm as u64,
        )]);
        let sample = sample_all(&index, &mut table, &arm_set, 50, &mut rng, |_| false);
        assert_eq!(sample.len(), 10);
    }

    #[test]
    fn large_samples_use_the_mask_and_stay_distinct() {
        // k > SMALL_SAMPLE exercises the bitmask duplicate guard in both
        // the rejection and exact phases.
        let (index, mut table) = index_and_table(population());
        let mut rng = StdRng::seed_from_u64(13);
        let any = ConstraintSet::unconstrained();
        let sample = sample_all(&index, &mut table, &any, 80, &mut rng, |w| w % 7 == 0);
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), sample.len(), "samples must be distinct");
        assert!(sample.iter().all(|&w| w % 7 != 0), "exclusion honored");
        assert_eq!(sample.len(), 80.min(population().len() - 15));
    }

    #[test]
    fn sampling_zero_or_empty_population() {
        let (index, mut table) = index_and_table(population());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(sample_all(&index, &mut table, &big_cores(), 0, &mut rng, |_| false).is_empty());
        let (empty, mut table) = index_and_table(Vec::new());
        let set = table.intern(&big_cores());
        assert!(table
            .sample(&empty, set, 3, 0..0, &mut rng, |_| false)
            .is_empty());
        assert!(empty.is_empty());
        assert!(table.ids(&empty, set).is_empty());
        let any = table.intern(&ConstraintSet::unconstrained());
        assert_eq!(table.count(&empty, any), 0);
    }

    /// A 1,000-machine population with a handful of values per kind.
    fn spread_population() -> Vec<AttributeVector> {
        (0..1_000u64)
            .map(|i| spread_machine(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), 5))
            .collect()
    }

    fn naive_ids(machines: &[AttributeVector], set: &ConstraintSet) -> Vec<u32> {
        (0..machines.len() as u32)
            .filter(|&w| set.satisfied_by(&machines[w as usize]))
            .collect()
    }

    #[test]
    fn lazy_id_lists_match_naive_scan_before_and_after_build() {
        let machines = spread_population();
        let (index, mut table) = index_and_table(machines.clone());
        let words_bytes = machines.len().div_ceil(64) * 8;
        let sets = [
            ConstraintSet::unconstrained(),
            ConstraintSet::from_constraints(vec![Constraint::hard(
                ConstraintKind::NumCores,
                ConstraintOp::Gt,
                2,
            )]),
            ConstraintSet::from_constraints(vec![
                Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Lt, 4),
                Constraint::hard(ConstraintKind::Memory, ConstraintOp::Gt, 16),
                Constraint::hard(ConstraintKind::KernelVersion, ConstraintOp::Gt, 300),
            ]),
        ];
        let mut rng = StdRng::seed_from_u64(5);
        let mut lists = 0;
        for (i, set) in sets.iter().enumerate() {
            let naive = naive_ids(&machines, set);
            assert!(!naive.is_empty(), "{set}");
            let id = table.intern(set);
            // Membership and a sample the rejection phase fills answer by
            // direct comparison and build nothing. (Every set here admits
            // over a quarter of the machines, so the seeded one-worker
            // sample never reaches the exact phase.)
            for w in 0..machines.len() as u32 {
                assert_eq!(
                    table.contains(&index, id, w),
                    naive.binary_search(&w).is_ok(),
                    "{set} worker {w}"
                );
            }
            let sample = table.sample(&index, id, 1, 0..1_000, &mut rng, |_| false);
            assert_eq!(sample.len(), 1, "{set}");
            assert_eq!(table.stats().sets, i, "{set}: nothing built before a count");
            // Counting builds the bitset, never the list; membership and
            // the rejection phase then answer from the bitset.
            assert_eq!(table.count(&index, id), naive.len(), "{set}");
            for w in 0..machines.len() as u32 {
                assert_eq!(
                    table.contains(&index, id, w),
                    naive.binary_search(&w).is_ok()
                );
            }
            let sample = table.sample(&index, id, 1, 0..1_000, &mut rng, |_| false);
            assert_eq!(sample.len(), 1, "{set}");
            let stats = table.stats();
            assert_eq!(
                (stats.sets, stats.sets_with_ids, stats.bitset_bytes),
                (i + 1, lists, (i + 1) * words_bytes),
                "{set}: no list before a walk"
            );
            // Build the list; every answer stays the same.
            assert_eq!(table.ids(&index, id).to_vec(), naive, "{set}");
            lists += 1;
            assert_eq!(table.stats().sets_with_ids, lists, "{set}");
            assert_eq!(table.count(&index, id), naive.len(), "{set}");
            assert_eq!(ones(table.bits(&index, id)).collect::<Vec<_>>(), naive);
            let first = table.ids(&index, id).as_ptr();
            assert_eq!(table.ids(&index, id).as_ptr(), first);
        }
        let expected_ids: usize = sets.iter().map(|s| naive_ids(&machines, s).len()).sum();
        assert_eq!(table.stats().id_bytes, expected_ids * 4);
    }

    #[test]
    fn ones_walks_set_bits_in_ascending_order() {
        assert_eq!(ones(&[]).count(), 0);
        assert_eq!(ones(&[0, 0]).count(), 0);
        let bits = [1u64 << 63 | 5, 0, 1, u64::MAX];
        let expected: Vec<u32> = [0, 2, 63, 128].into_iter().chain(192..256).collect();
        assert_eq!(ones(&bits).collect::<Vec<_>>(), expected);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Sampling within a domain's range is the full-range sample with
        /// an exclusion of the ids outside it: same ids, same RNG state
        /// afterwards. Requests larger than the domain's feasible supply
        /// force the exact phase, whose walk covers only the range: it
        /// builds the sorted id list only when the range is the whole
        /// population, and walks the bitset words otherwise.
        #[test]
        fn domain_range_sampling_matches_range_excluding_closure(
            lo in 0u32..1_000,
            len in 0u32..400,
            whole in 0u32..4,
            k in 1usize..40,
            exclude_mod in 2u32..7,
            cores in 0u64..5,
            seed in 0u64..u64::MAX,
        ) {
            let machines = spread_population();
            let n = machines.len() as u32;
            // One case in four samples the whole population.
            let (lo, hi) = if whole == 0 { (0, n) } else { (lo, (lo + len).min(n)) };
            let set = ConstraintSet::from_constraints(vec![Constraint::hard(
                ConstraintKind::NumCores,
                ConstraintOp::Gt,
                cores,
            )]);
            let index = FeasibilityIndex::new(machines);
            let (mut ranged, mut full) = (SetTable::default(), SetTable::default());
            let (a_id, b_id) = (ranged.intern(&set), full.intern(&set));
            let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let a = ranged.sample(&index, a_id, k, lo..hi, &mut rng_a, |w| w % exclude_mod == 0);
            // Only the exact phase builds the bitset.
            let exact = ranged.stats().sets == 1;
            let b = full.sample(&index, b_id, k, 0..n, &mut rng_b, |w| {
                w < lo || w >= hi || w % exclude_mod == 0
            });
            proptest::prop_assert_eq!(&a, &b);
            proptest::prop_assert!(a.iter().all(|&w| (lo..hi).contains(&w)));
            proptest::prop_assert_eq!(rng_a.random::<u64>(), rng_b.random::<u64>());
            let supply = ranged.count_in_range(&index, a_id, lo as usize, hi as usize);
            if k > supply {
                proptest::prop_assert!(exact);
            }
            if exact {
                let whole_population = usize::from(lo == 0 && hi == n);
                proptest::prop_assert_eq!(ranged.stats().sets_with_ids, whole_population);
            }
        }

        /// The range walk yields exactly the ids of the full walk inside
        /// `[lo, hi)`, as many as the range count, and the same as a
        /// bit-by-bit scan. Populations mostly end mid-word, ranges have
        /// unaligned edges, may be empty or one bit wide, and may run past
        /// the last word.
        #[test]
        fn range_walk_matches_filtered_ones_and_range_count(
            n in 0usize..400,
            density in 0u32..4,
            lo in 0usize..470,
            len in proptest::prop_oneof![proptest::Just(0usize), proptest::Just(1usize), 0usize..470],
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            // Each extra AND halves the density; bits past `n` stay clear.
            let mut bits: Vec<u64> = (0..n.div_ceil(64))
                .map(|_| (0..density).fold(rng.random::<u64>(), |word, _| word & rng.random::<u64>()))
                .collect();
            if n % 64 != 0 {
                *bits.last_mut().expect("n > 0") &= u64::MAX >> (64 - n % 64);
            }
            let hi = lo + len;
            let walked: Vec<u32> = ones_in_range(&bits, lo, hi).collect();
            let filtered: Vec<u32> = ones(&bits)
                .filter(|&w| (lo..hi).contains(&(w as usize)))
                .collect();
            let scanned: Vec<u32> = (lo..hi.min(n))
                .filter(|&w| bits[w >> 6] >> (w & 63) & 1 != 0)
                .map(|w| w as u32)
                .collect();
            proptest::prop_assert_eq!(&walked, &filtered);
            proptest::prop_assert_eq!(&walked, &scanned);
            proptest::prop_assert_eq!(walked.len(), count_ones_in_range(&bits, lo, hi));
        }
    }

    #[test]
    fn infeasible_set_yields_empty_everything() {
        let (index, mut table) = index_and_table(population());
        let impossible = ConstraintSet::from_constraints(vec![Constraint::hard(
            ConstraintKind::NumCores,
            ConstraintOp::Gt,
            1_000,
        )]);
        assert_eq!(index.count_feasible(&impossible), 0);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(sample_all(&index, &mut table, &impossible, 4, &mut rng, |_| false).is_empty());
    }
}
