//! The Google-trace constraint model (Table II and Fig. 6 of the paper) and
//! the synthesizer used to embed representative constraints into workloads.
//!
//! The Google trace hashes constraint attributes and values; the paper
//! reconstructs their semantics by correlating with the constraint frequency
//! vectors of Sharma et al. ("Modeling and synthesizing task placement
//! constraints in Google compute clusters", SoCC'11) and then reuses the
//! same benchmarking model to *synthesize* constraints into the Yahoo and
//! Cloudera traces. [`ConstraintModel`] plays that role here: it samples
//! per-job [`ConstraintSet`]s whose kind mix matches Table II and whose
//! per-job constraint counts match the demand curve of Fig. 6.

use rand::Rng;

use crate::attr::Isa;
use crate::constraint::{
    Constraint, ConstraintKind, ConstraintOp, ConstraintSet, PlacementConstraint,
};
use crate::expr::{ConstraintExpr, VectorDemand};
use crate::matching::FeasibilityIndex;
use crate::supply::{weighted_pick, MachinePopulation};

/// One row of Table II: a constraint kind with its observed relative
/// slowdown, share of constrained tasks, and absolute occurrence count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KindProfile {
    /// Constraint kind.
    pub kind: ConstraintKind,
    /// Slowdown of a constrained job w.r.t. an equivalent unconstrained job.
    pub relative_slowdown: f64,
    /// Percentage share among constrained tasks (sums to ~100 plus the
    /// memory kind we add with share 0 for fidelity to the table).
    pub share_percent: f64,
    /// Occurrences in the month-long Google trace.
    pub occurrences: u64,
}

/// Table II of the paper, verbatim.
pub const TABLE_II: [KindProfile; 9] = [
    KindProfile {
        kind: ConstraintKind::Architecture,
        relative_slowdown: 2.03,
        share_percent: 80.64,
        occurrences: 20_412_140,
    },
    KindProfile {
        kind: ConstraintKind::NumNodes,
        relative_slowdown: 1.96,
        share_percent: 0.28,
        occurrences: 71_103,
    },
    KindProfile {
        kind: ConstraintKind::EthernetSpeed,
        relative_slowdown: 1.91,
        share_percent: 0.18,
        occurrences: 30_128,
    },
    KindProfile {
        kind: ConstraintKind::NumCores,
        relative_slowdown: 1.90,
        share_percent: 18.28,
        occurrences: 2_856_749,
    },
    KindProfile {
        kind: ConstraintKind::MaxDisks,
        relative_slowdown: 1.90,
        share_percent: 8.57,
        occurrences: 1_665_117,
    },
    KindProfile {
        kind: ConstraintKind::KernelVersion,
        relative_slowdown: 1.77,
        share_percent: 0.21,
        occurrences: 52_722,
    },
    KindProfile {
        kind: ConstraintKind::PlatformFamily,
        relative_slowdown: 1.77,
        share_percent: 0.05,
        occurrences: 14_473,
    },
    KindProfile {
        kind: ConstraintKind::CpuClockSpeed,
        relative_slowdown: 1.76,
        share_percent: 0.16,
        occurrences: 42_688,
    },
    KindProfile {
        kind: ConstraintKind::MinDisks,
        relative_slowdown: 0.91,
        share_percent: 0.66,
        occurrences: 168_656,
    },
];

/// Looks up the Table II row for a kind, if present.
pub fn table_ii_row(kind: ConstraintKind) -> Option<&'static KindProfile> {
    TABLE_II.iter().find(|p| p.kind == kind)
}

/// Per-job constraint-count distribution (the demand curve of Fig. 6):
/// probability that a constrained job asks for `k` constraints,
/// `k = 1..=6`.
///
/// The paper reports ~33 % of jobs asking two constraints, ~20 % asking
/// four or more, and ~80 % asking three or fewer.
pub const CONSTRAINT_COUNT_DISTRIBUTION: [f64; 6] = [0.27, 0.33, 0.20, 0.11, 0.06, 0.03];

/// Samples per-job constraint sets matching the paper's distributions.
#[derive(Debug, Clone)]
pub struct ConstraintModel {
    /// Probability that a job is constrained at all (Table III: ~50 %).
    pub constrained_fraction: f64,
    /// Probability that a constrained job additionally carries a placement
    /// (affinity) constraint.
    pub placement_fraction: f64,
    /// Per-count probabilities for `k = 1..=6`.
    pub count_distribution: [f64; 6],
    /// Per-kind weights (Table II shares by default).
    pub kind_weights: Vec<(ConstraintKind, f64)>,
    /// Probability that a constrained job carries a *compositional*
    /// expression (affinity `Any`, anti-affinity `Not`, vector packing)
    /// instead of a flat set. 0.0 in every paper-faithful profile — the
    /// Google trace model is flat — and, critically for digest stability,
    /// the gating RNG draw only happens when this is positive, so flat
    /// profiles consume the exact historical draw sequence.
    pub expression_fraction: f64,
    /// Target tree depth for synthesized expressions (clamped to `1..=3`):
    /// 1 = vector packing leaves, 2 = affinity/anti-affinity combinators,
    /// 3 = combined trees (`All` over `Any`/`Not` branches).
    pub expression_depth: usize,
}

impl ConstraintModel {
    /// The Google-trace model: Table II kind mix, Fig. 6 count curve,
    /// ~50 % constrained tasks.
    pub fn google() -> Self {
        ConstraintModel {
            constrained_fraction: 0.513,
            placement_fraction: 0.05,
            count_distribution: CONSTRAINT_COUNT_DISTRIBUTION,
            kind_weights: TABLE_II.iter().map(|p| (p.kind, p.share_percent)).collect(),
            expression_fraction: 0.0,
            expression_depth: 2,
        }
    }

    /// Model used to embed constraints into the Yahoo trace
    /// (Table III: 251,404 of 514,644 tasks constrained → 48.8 %).
    pub fn yahoo() -> Self {
        ConstraintModel {
            constrained_fraction: 0.488,
            ..Self::google()
        }
    }

    /// Model used to embed constraints into the Cloudera trace
    /// (Table III: 1,972,428 of 3,897,480 tasks constrained → 50.6 %).
    pub fn cloudera() -> Self {
        ConstraintModel {
            constrained_fraction: 0.506,
            ..Self::google()
        }
    }

    /// A model that never emits constraints (the unconstrained baseline of
    /// Fig. 2).
    pub fn unconstrained() -> Self {
        ConstraintModel {
            constrained_fraction: 0.0,
            placement_fraction: 0.0,
            count_distribution: CONSTRAINT_COUNT_DISTRIBUTION,
            kind_weights: TABLE_II.iter().map(|p| (p.kind, p.share_percent)).collect(),
            expression_fraction: 0.0,
            expression_depth: 2,
        }
    }

    /// Returns the model with compositional expressions enabled: a
    /// `fraction` of constrained jobs draw an expression tree of the given
    /// target `depth` instead of a flat set.
    pub fn with_expressions(mut self, fraction: f64, depth: usize) -> Self {
        self.expression_fraction = fraction;
        self.expression_depth = depth.clamp(1, 3);
        self
    }

    /// Value choices for a kind: `(op, value, weight)` rows.
    ///
    /// The values are calibrated against
    /// [`crate::supply::PopulationProfile::google_like`] so that the average
    /// fraction of nodes satisfying a k-constraint job reproduces the supply
    /// curve of Fig. 6 (~12 % at k = 2, dropping to ~5 % at k = 6).
    /// Jobs deliberately over-ask for scarce configurations — that is what
    /// produces the 1.8–2× constrained-job slowdowns of Table II.
    pub fn value_choices(kind: ConstraintKind) -> &'static [(ConstraintOp, u64, f64)] {
        match kind {
            // Jobs request minority ISAs somewhat more often than their
            // supply share (x86 86 % / arm 9 % / power 5 %), making ISA the
            // dominant source of contention without *sustainably*
            // oversubscribing any ISA class — the paper observes ~2×
            // slowdowns for constrained jobs, not divergence.
            ConstraintKind::Architecture => &[
                (ConstraintOp::Eq, Isa::X86 as u64, 0.80),
                (ConstraintOp::Eq, Isa::Arm as u64, 0.14),
                (ConstraintOp::Eq, Isa::Power as u64, 0.06),
            ],
            ConstraintKind::NumNodes => {
                &[(ConstraintOp::Gt, 19, 0.40), (ConstraintOp::Gt, 39, 0.60)]
            }
            ConstraintKind::EthernetSpeed => &[
                (ConstraintOp::Gt, 1_000, 0.50),
                (ConstraintOp::Gt, 10_000, 0.50),
            ],
            ConstraintKind::NumCores => &[
                (ConstraintOp::Gt, 4, 0.30),
                (ConstraintOp::Gt, 8, 0.30),
                (ConstraintOp::Gt, 16, 0.30),
                (ConstraintOp::Gt, 32, 0.10),
            ],
            ConstraintKind::MaxDisks => &[
                (ConstraintOp::Lt, 2, 0.30),
                (ConstraintOp::Lt, 3, 0.40),
                (ConstraintOp::Lt, 5, 0.30),
            ],
            ConstraintKind::KernelVersion => &[
                (ConstraintOp::Gt, 315, 0.40),
                (ConstraintOp::Eq, 318, 0.30),
                (ConstraintOp::Eq, 410, 0.30),
            ],
            ConstraintKind::PlatformFamily => &[
                (ConstraintOp::Eq, 1, 0.40),
                (ConstraintOp::Eq, 2, 0.35),
                (ConstraintOp::Eq, 3, 0.25),
            ],
            ConstraintKind::CpuClockSpeed => &[
                (ConstraintOp::Gt, 2_100, 0.20),
                (ConstraintOp::Gt, 2_500, 0.40),
                (ConstraintOp::Gt, 2_900, 0.40),
            ],
            ConstraintKind::MinDisks => &[
                (ConstraintOp::Gt, 1, 0.20),
                (ConstraintOp::Gt, 3, 0.30),
                (ConstraintOp::Gt, 7, 0.50),
            ],
            ConstraintKind::Memory => &[
                (ConstraintOp::Gt, 16, 0.40),
                (ConstraintOp::Gt, 32, 0.40),
                (ConstraintOp::Gt, 64, 0.20),
            ],
        }
    }

    /// A representative (median-weight) constraint for a kind, used by
    /// monitors to estimate per-kind supply.
    pub fn representative_constraint(kind: ConstraintKind) -> Constraint {
        let choices = Self::value_choices(kind);
        let (op, value, _) = choices
            .iter()
            .max_by(|a, b| a.2.partial_cmp(&b.2).expect("weights are finite"))
            .expect("choice tables are non-empty");
        Constraint::with_default_class(kind, *op, *value)
    }

    /// The Table II relative slowdown for a kind (1.0 when absent).
    pub fn relative_slowdown(kind: ConstraintKind) -> f64 {
        table_ii_row(kind).map_or(1.0, |p| p.relative_slowdown)
    }

    /// Samples the number of constraints for a constrained job.
    pub fn sample_count<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let table: Vec<(usize, f64)> = self
            .count_distribution
            .iter()
            .enumerate()
            .map(|(i, w)| (i + 1, *w))
            .collect();
        weighted_pick(&table, rng)
    }

    /// Samples `count` *distinct* constraint kinds, weighted by the model's
    /// kind mix.
    pub fn sample_kinds<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<ConstraintKind> {
        let mut remaining: Vec<(ConstraintKind, f64)> = self.kind_weights.clone();
        let mut kinds = Vec::with_capacity(count);
        while kinds.len() < count && !remaining.is_empty() {
            let kind = weighted_pick(&remaining, rng);
            kinds.push(kind);
            remaining.retain(|(k, _)| *k != kind);
        }
        kinds
    }

    /// Synthesizes a constraint set for one constrained job.
    pub fn synthesize_set<R: Rng + ?Sized>(&self, rng: &mut R) -> ConstraintSet {
        self.synthesize_set_capped(rng, usize::MAX)
    }

    /// Synthesizes a constraint set with at most `max_count` constraints.
    ///
    /// Long batch jobs in production traces carry fewer, simpler placement
    /// constraints than latency-critical services (machine-type pinning
    /// rather than rich multi-attribute combinations); the generator uses
    /// this cap for long jobs.
    pub fn synthesize_set_capped<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        max_count: usize,
    ) -> ConstraintSet {
        // The expression gate only consumes a draw when enabled, keeping
        // flat profiles' RNG streams byte-identical to the historical path.
        if self.expression_fraction > 0.0 && rng.random::<f64>() < self.expression_fraction {
            return self.synthesize_expression(rng);
        }
        let count = self.sample_count(rng).min(max_count.max(1));
        let kinds = self.sample_kinds(count, rng);
        let constraints = kinds
            .into_iter()
            .map(|kind| Self::sample_constraint(kind, rng))
            .collect();
        let set = ConstraintSet::from_constraints(constraints);
        self.maybe_with_placement(set, rng)
    }

    /// Samples one `(op, value)` choice for a kind, with the kind's default
    /// class.
    fn sample_constraint<R: Rng + ?Sized>(kind: ConstraintKind, rng: &mut R) -> Constraint {
        let table: Vec<((ConstraintOp, u64), f64)> = Self::value_choices(kind)
            .iter()
            .map(|(op, v, w)| ((*op, *v), *w))
            .collect();
        let (op, value) = weighted_pick(&table, rng);
        Constraint::with_default_class(kind, op, value)
    }

    /// Draws the placement-constraint attachment for a freshly synthesized
    /// set (same draw sequence as the historical inline code).
    fn maybe_with_placement<R: Rng + ?Sized>(
        &self,
        set: ConstraintSet,
        rng: &mut R,
    ) -> ConstraintSet {
        if rng.random::<f64>() < self.placement_fraction {
            let placement = if rng.random::<bool>() {
                PlacementConstraint::Spread
            } else {
                PlacementConstraint::Colocate
            };
            return set.with_placement(placement);
        }
        set
    }

    /// Samples a platform-affinity leaf: `platform = v` with Table II's
    /// value mix.
    fn sample_platform_leaf<R: Rng + ?Sized>(rng: &mut R) -> ConstraintExpr {
        ConstraintExpr::leaf(Self::sample_constraint(ConstraintKind::PlatformFamily, rng))
    }

    /// Samples a vector packing demand. Dimensions can be zero
    /// (unconstrained); the value pools are calibrated against
    /// [`crate::supply::PopulationProfile::google_like`] so that demands
    /// stay satisfiable by a healthy machine-class share.
    fn sample_vector_demand<R: Rng + ?Sized>(rng: &mut R) -> VectorDemand {
        VectorDemand {
            cores: weighted_pick(&[(4u64, 0.4), (8, 0.4), (16, 0.2)], rng),
            memory_gb: weighted_pick(&[(0u64, 0.3), (16, 0.4), (32, 0.3)], rng),
            disks: weighted_pick(&[(0u64, 0.6), (2, 0.25), (4, 0.15)], rng),
            clock_mhz: weighted_pick(&[(0u64, 0.7), (2_100, 0.2), (2_500, 0.1)], rng),
            ethernet_mbps: weighted_pick(&[(0u64, 0.7), (1_000, 0.2), (10_000, 0.1)], rng),
        }
    }

    /// Synthesizes a compositional constraint expression of the model's
    /// target depth. Families:
    ///
    /// * depth 1 — **packing**: a bare [`VectorDemand`] (lowered to a flat
    ///   conjunction by [`ConstraintSet::from_expr`]),
    /// * depth 2 — **affinity** (`Any` over platform families),
    ///   **anti-affinity** (`Not` of a platform), or a packing
    ///   disjunction (`Any` over two demand shapes),
    /// * depth 3 — combined trees: `All` over an affinity `Any` plus a
    ///   scalar leaf (hard or soft, so OR-branch negotiation is exercised)
    ///   or an anti-affinity `Not`.
    pub fn synthesize_expression<R: Rng + ?Sized>(&self, rng: &mut R) -> ConstraintSet {
        let depth = self.expression_depth.clamp(1, 3);
        let expr = match depth {
            1 => ConstraintExpr::vector(Self::sample_vector_demand(rng)),
            2 => match weighted_pick(&[(0u8, 0.4), (1, 0.3), (2, 0.3)], rng) {
                0 => ConstraintExpr::any_of(vec![
                    Self::sample_platform_leaf(rng),
                    Self::sample_platform_leaf(rng),
                ]),
                1 => ConstraintExpr::not(Self::sample_platform_leaf(rng)),
                _ => ConstraintExpr::any_of(vec![
                    ConstraintExpr::vector(Self::sample_vector_demand(rng)),
                    ConstraintExpr::vector(Self::sample_vector_demand(rng)),
                ]),
            },
            _ => {
                let affinity = ConstraintExpr::any_of(vec![
                    Self::sample_platform_leaf(rng),
                    Self::sample_platform_leaf(rng),
                ]);
                let partner = if rng.random::<bool>() {
                    let kind = self.sample_kinds(1, rng)[0];
                    ConstraintExpr::leaf(Self::sample_constraint(kind, rng))
                } else {
                    ConstraintExpr::not(ConstraintExpr::leaf(Self::sample_constraint(
                        ConstraintKind::Architecture,
                        rng,
                    )))
                };
                ConstraintExpr::all_of(vec![affinity, partner])
            }
        };
        let set = ConstraintSet::from_expr(expr);
        self.maybe_with_placement(set, rng)
    }

    /// Synthesizes a set for an arbitrary job: unconstrained with
    /// probability `1 - constrained_fraction`, otherwise a sampled set.
    pub fn maybe_synthesize<R: Rng + ?Sized>(&self, rng: &mut R) -> ConstraintSet {
        if rng.random::<f64>() < self.constrained_fraction {
            self.synthesize_set(rng)
        } else {
            ConstraintSet::unconstrained()
        }
    }
}

impl Default for ConstraintModel {
    fn default() -> Self {
        Self::google()
    }
}

/// Empirical statistics over a collection of constraint sets, used to
/// validate the synthesizer against Table II and Fig. 6 and to print the
/// corresponding experiment tables.
#[derive(Debug, Clone, Default)]
pub struct ConstraintStats {
    /// Number of sets observed (constrained + unconstrained).
    pub total_sets: usize,
    /// Number of constrained sets.
    pub constrained_sets: usize,
    /// Histogram of constraint counts `k = 1..=6` among constrained sets.
    pub count_histogram: [usize; 6],
    /// Occurrences per kind.
    pub kind_occurrences: [usize; ConstraintKind::COUNT],
}

impl ConstraintStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one constraint set.
    pub fn record(&mut self, set: &ConstraintSet) {
        self.total_sets += 1;
        if set.is_unconstrained() {
            return;
        }
        self.constrained_sets += 1;
        let k = set.len().min(6);
        if k >= 1 {
            self.count_histogram[k - 1] += 1;
        }
        for c in set.iter() {
            self.kind_occurrences[c.kind.index()] += 1;
        }
    }

    /// Fraction of sets that are constrained.
    pub fn constrained_fraction(&self) -> f64 {
        if self.total_sets == 0 {
            return 0.0;
        }
        self.constrained_sets as f64 / self.total_sets as f64
    }

    /// Share (%) of each kind among all recorded constraints.
    pub fn kind_shares(&self) -> Vec<(ConstraintKind, f64)> {
        let total: usize = self.kind_occurrences.iter().sum();
        ConstraintKind::ALL
            .iter()
            .map(|&k| {
                let share = if total == 0 {
                    0.0
                } else {
                    100.0 * self.kind_occurrences[k.index()] as f64 / total as f64
                };
                (k, share)
            })
            .collect()
    }

    /// Demand curve of Fig. 6: percentage of constrained sets asking for
    /// `k = 1..=6` constraints.
    pub fn demand_curve(&self) -> [f64; 6] {
        let mut curve = [0.0; 6];
        if self.constrained_sets == 0 {
            return curve;
        }
        for (i, &n) in self.count_histogram.iter().enumerate() {
            curve[i] = 100.0 * n as f64 / self.constrained_sets as f64;
        }
        curve
    }
}

/// Supply curve of Fig. 6: for each `k = 1..=6`, the average percentage of
/// nodes able to satisfy a k-constraint job, estimated from `samples`
/// synthesized sets against `population`. Each set is counted uncached on
/// a posting-list index over the population.
pub fn supply_curve<R: Rng + ?Sized>(
    model: &ConstraintModel,
    population: &MachinePopulation,
    samples: usize,
    rng: &mut R,
) -> [f64; 6] {
    let index = FeasibilityIndex::new(population.machines().to_vec());
    let mut sums = [0.0f64; 6];
    let mut counts = [0usize; 6];
    let mut drawn = 0usize;
    // Draw until each k-bucket has data or the sample budget is exhausted.
    while drawn < samples {
        let set = model.synthesize_set(rng);
        drawn += 1;
        let k = set.len().clamp(1, 6);
        sums[k - 1] += index.feasible_fraction(&set);
        counts[k - 1] += 1;
    }
    let mut curve = [0.0f64; 6];
    for i in 0..6 {
        if counts[i] > 0 {
            curve[i] = 100.0 * sums[i] / counts[i] as f64;
        }
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supply::PopulationProfile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn table_ii_shares_match_published_sum() {
        // The paper's share column sums to 109.03 % — kinds co-occur within
        // multi-constraint jobs, so shares legitimately exceed 100 %.
        let total: f64 = TABLE_II.iter().map(|p| p.share_percent).sum();
        assert!((total - 109.03).abs() < 1e-6, "total share {total}");
    }

    #[test]
    fn table_ii_lookup() {
        let row = table_ii_row(ConstraintKind::Architecture).unwrap();
        assert_eq!(row.occurrences, 20_412_140);
        assert!(table_ii_row(ConstraintKind::Memory).is_none());
    }

    #[test]
    fn count_distribution_is_a_probability_vector() {
        let total: f64 = CONSTRAINT_COUNT_DISTRIBUTION.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(CONSTRAINT_COUNT_DISTRIBUTION.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn synthesized_constrained_fraction_matches_model() {
        let model = ConstraintModel::google();
        let mut rng = StdRng::seed_from_u64(11);
        let mut stats = ConstraintStats::new();
        for _ in 0..20_000 {
            stats.record(&model.maybe_synthesize(&mut rng));
        }
        let f = stats.constrained_fraction();
        assert!(
            (f - model.constrained_fraction).abs() < 0.02,
            "constrained fraction {f}"
        );
    }

    #[test]
    fn synthesized_kind_mix_tracks_table_ii() {
        let model = ConstraintModel::google();
        let mut rng = StdRng::seed_from_u64(13);
        let mut stats = ConstraintStats::new();
        for _ in 0..30_000 {
            stats.record(&model.synthesize_set(&mut rng));
        }
        let shares = stats.kind_shares();
        let arch = shares
            .iter()
            .find(|(k, _)| *k == ConstraintKind::Architecture)
            .unwrap()
            .1;
        // Multi-constraint jobs draw kinds without replacement, which
        // necessarily flattens the marginal mix relative to Table II's
        // per-constraint share; the dominant kind must still dominate.
        assert!(arch > 35.0, "architecture share {arch}%");
        let cores = shares
            .iter()
            .find(|(k, _)| *k == ConstraintKind::NumCores)
            .unwrap()
            .1;
        assert!(cores > 10.0, "num-cores share {cores}%");
    }

    #[test]
    fn synthesized_count_histogram_tracks_fig6_demand() {
        let model = ConstraintModel::google();
        let mut rng = StdRng::seed_from_u64(17);
        let mut stats = ConstraintStats::new();
        for _ in 0..30_000 {
            stats.record(&model.synthesize_set(&mut rng));
        }
        let demand = stats.demand_curve();
        assert!((demand[1] - 33.0).abs() < 3.0, "k=2 demand {}%", demand[1]);
        let four_plus: f64 = demand[3..].iter().sum();
        assert!(
            (four_plus - 20.0).abs() < 4.0,
            "k>=4 cumulative demand {four_plus}%"
        );
    }

    #[test]
    fn supply_curve_is_decreasing_and_matches_fig6_anchors() {
        let model = ConstraintModel::google();
        let mut rng = StdRng::seed_from_u64(19);
        let population =
            MachinePopulation::generate(PopulationProfile::google_like(), 4_000, &mut rng);
        let curve = supply_curve(&model, &population, 8_000, &mut rng);
        // Fig. 6 anchors: ~12 % of nodes satisfy a 2-constraint job; ~5 %
        // satisfy a 6-constraint job; the curve decreases with k. Our
        // calibration lands slightly above the paper's k=2 anchor: pushing
        // it to 12 % requires over-demanding scarce machine classes beyond
        // their sustainable capacity (see DESIGN.md §3).
        assert!(
            curve[1] > 5.0 && curve[1] < 35.0,
            "k=2 supply {}%",
            curve[1]
        );
        assert!(curve[5] < 12.0, "k=6 supply {}%", curve[5]);
        assert!(
            curve[0] > curve[2] && curve[2] > curve[5],
            "supply must decrease with k: {curve:?}"
        );
    }

    #[test]
    fn sample_kinds_are_distinct() {
        let model = ConstraintModel::google();
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..200 {
            let kinds = model.sample_kinds(6, &mut rng);
            let mut dedup = kinds.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), kinds.len());
        }
    }

    #[test]
    fn unconstrained_model_never_constrains() {
        let model = ConstraintModel::unconstrained();
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..500 {
            assert!(model.maybe_synthesize(&mut rng).is_unconstrained());
        }
    }

    #[test]
    fn representative_constraint_exists_for_every_kind() {
        for kind in ConstraintKind::ALL {
            let c = ConstraintModel::representative_constraint(kind);
            assert_eq!(c.kind, kind);
        }
    }

    #[test]
    fn relative_slowdown_defaults_to_one() {
        assert_eq!(
            ConstraintModel::relative_slowdown(ConstraintKind::Memory),
            1.0
        );
        assert!(ConstraintModel::relative_slowdown(ConstraintKind::Architecture) > 2.0 - 1e-9);
    }

    #[test]
    fn placement_fraction_controls_affinity_sets() {
        let mut model = ConstraintModel::google();
        model.placement_fraction = 1.0;
        let mut rng = StdRng::seed_from_u64(31);
        let set = model.synthesize_set(&mut rng);
        assert_ne!(set.placement(), PlacementConstraint::None);
    }

    #[test]
    fn stats_ignore_unconstrained_sets_in_histograms() {
        let mut stats = ConstraintStats::new();
        stats.record(&ConstraintSet::unconstrained());
        assert_eq!(stats.total_sets, 1);
        assert_eq!(stats.constrained_sets, 0);
        assert_eq!(stats.demand_curve(), [0.0; 6]);
    }
}
