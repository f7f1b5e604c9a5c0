//! Proactive admission control: soft-constraint negotiation.
//!
//! When a job arrives whose full constraint set no worker can satisfy,
//! Phoenix *negotiates*: soft constraints are relaxed one at a time — the
//! most contended kind first, guided by the CRV lookup table — until
//! feasible workers appear (§IV, contribution 2). Tasks placed with relaxed
//! constraints run with the Table-II slowdown of the dropped kinds.
//! Hard constraints are never relaxed; a job whose hard subset is
//! unsatisfiable is failed.
//!
//! # Expression sets
//!
//! Sets carrying a compositional [`ConstraintExpr`] negotiate differently:
//! single-constraint removal is not meaningful on a tree. For a top-level
//! `Any`, admission picks the *cheapest satisfiable branch* — ranked by the
//! CRV contention of the kinds the branch demands — instead of dropping
//! soft constraints wholesale; otherwise it falls back to the whole
//! expression's hard relaxation (soft literals replaced by `true`).

use phoenix_constraints::{ConstraintExpr, ConstraintModel, ConstraintSet, CrvTable, SetId};
use phoenix_schedulers::Placement;
use phoenix_sim::SimCtx;

/// Outcome of a negotiation.
#[derive(Debug, Clone, PartialEq)]
pub struct Negotiation {
    /// The placement to use.
    pub placement: Placement,
    /// The effective constraint set after relaxation (the input set when
    /// nothing was relaxed).
    pub effective: SetId,
    /// Number of soft constraints dropped.
    pub relaxed: usize,
}

/// Negotiates placement targets for `set`, relaxing soft constraints in
/// descending order of CRV contention until feasible workers exist.
/// Returns `None` when even the hard subset is unsatisfiable.
///
/// `exclude` marks workers to avoid (advisory — ignored when it would make
/// placement impossible).
pub fn negotiate_targets(
    ctx: &mut SimCtx<'_>,
    set: SetId,
    count: usize,
    table: &CrvTable,
    mut exclude: impl FnMut(u32) -> bool,
) -> Option<Negotiation> {
    if let Some(expr) = ctx.sets().get(set).expr().cloned() {
        return negotiate_expr_targets(ctx, set, &expr, count, table, exclude);
    }
    let mut current = set;
    let mut relaxed = 0usize;
    let mut slowdown = 1.0f64;
    loop {
        if ctx.count_feasible(current) > 0 {
            let targets = sample_targets(ctx, current, count, &mut exclude);
            let placement = if relaxed == 0 {
                Placement::Full(targets)
            } else {
                Placement::HardOnly(targets, slowdown)
            };
            return Some(Negotiation {
                placement,
                effective: current,
                relaxed,
            });
        }
        // Pick the soft constraint with the most contended kind.
        let relaxing = ctx.sets().get(current);
        let victim = relaxing
            .soft_constraints()
            .max_by(|a, b| {
                let ra = table.ratio(a.kind);
                let rb = table.ratio(b.kind);
                ra.partial_cmp(&rb).unwrap_or(std::cmp::Ordering::Equal)
            })
            .copied();
        let Some(victim) = victim else {
            // Nothing left to relax and still infeasible.
            return None;
        };
        slowdown = slowdown.max(ConstraintModel::relative_slowdown(victim.kind));
        let next = relaxing
            .relax_constraint(&victim)
            .expect("victim is a soft constraint of the set");
        current = ctx.intern(&next);
        relaxed += 1;
    }
}

/// The shared target-sampling ladder: prefer non-excluded feasible workers,
/// fall back to any feasible worker, and — only under fault injection —
/// to dead feasible workers (the engine bounces those probes into the
/// retry path). The caller must have checked `count_feasible > 0`.
fn sample_targets(
    ctx: &mut SimCtx<'_>,
    set: SetId,
    count: usize,
    exclude: &mut impl FnMut(u32) -> bool,
) -> Vec<phoenix_sim::WorkerId> {
    let mut targets = ctx.sample_feasible_workers_excluding(set, count, exclude);
    if targets.is_empty() {
        targets = ctx.sample_feasible_workers(set, count);
    }
    if targets.is_empty() {
        debug_assert!(ctx.config().faults.is_active(), "feasibility checked above");
        targets = ctx.sample_feasible_workers_any(set, count);
    }
    debug_assert!(!targets.is_empty());
    targets
}

/// Negotiation for sets carrying a compositional expression.
///
/// 1. The full expression feasible → `Placement::Full`, nothing relaxed
///    (an `Any` compiles to the union of its branches, so a feasible
///    branch implies this).
/// 2. Top-level `Any`: among branches whose hard relaxation is feasible,
///    pick the *cheapest* — lowest summed CRV contention over the kinds
///    the branch demands, ties broken by fewer relaxed soft leaves, then
///    branch order. The job runs under that branch's hard relaxation with
///    the Table-II slowdown of the branch's own soft leaves only.
/// 3. Otherwise the whole expression's hard relaxation, if feasible.
/// 4. Else the job fails.
fn negotiate_expr_targets(
    ctx: &mut SimCtx<'_>,
    set: SetId,
    expr: &ConstraintExpr,
    count: usize,
    table: &CrvTable,
    mut exclude: impl FnMut(u32) -> bool,
) -> Option<Negotiation> {
    if ctx.count_feasible(set) > 0 {
        let targets = sample_targets(ctx, set, count, &mut exclude);
        return Some(Negotiation {
            placement: Placement::Full(targets),
            effective: set,
            relaxed: 0,
        });
    }
    if let ConstraintExpr::Any(branches) = expr {
        let placement = ctx.sets().get(set).placement();
        let mut best: Option<(f64, usize, usize, SetId, f64)> = None;
        for (i, branch) in branches.iter().enumerate() {
            let branch_set =
                ConstraintSet::from_expr(branch.hard_relaxation()).with_placement(placement);
            let branch_set = ctx.intern(&branch_set);
            if ctx.count_feasible(branch_set) == 0 {
                continue;
            }
            // CRV-guided branch cost: the summed demand/supply contention
            // of the kinds this branch asks for. Infinite ratios (zero
            // supply) are already filtered by the feasibility check above
            // for hard kinds, but soft-relaxed branches stay comparable.
            let cost: f64 = branch
                .projection()
                .iter()
                .map(|c| table.ratio(c.kind))
                .sum();
            let relaxed = branch.count_soft_leaves();
            let candidate_key = (cost, relaxed, i);
            let better = match &best {
                None => true,
                Some((bc, br, bi, _, _)) => {
                    candidate_key
                        .partial_cmp(&(*bc, *br, *bi))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        == std::cmp::Ordering::Less
                }
            };
            if better {
                let slowdown = branch
                    .soft_leaf_kinds()
                    .iter()
                    .map(|&k| ConstraintModel::relative_slowdown(k))
                    .fold(1.0f64, f64::max);
                best = Some((cost, relaxed, i, branch_set, slowdown));
            }
        }
        if let Some((_, relaxed, _, branch_set, slowdown)) = best {
            let targets = sample_targets(ctx, branch_set, count, &mut exclude);
            // Every branch was infeasible as written (stage 1 covers the
            // union), so running under a branch's hard relaxation always
            // counts as a negotiated placement.
            return Some(Negotiation {
                placement: Placement::HardOnly(targets, slowdown),
                effective: branch_set,
                relaxed: relaxed.max(1),
            });
        }
    }
    let hard = ctx.sets().get(set).hard_only();
    let hard = ctx.intern(&hard);
    if ctx.count_feasible(hard) > 0 {
        let targets = sample_targets(ctx, hard, count, &mut exclude);
        let slowdown = expr
            .soft_leaf_kinds()
            .iter()
            .map(|&k| ConstraintModel::relative_slowdown(k))
            .fold(1.0f64, f64::max);
        return Some(Negotiation {
            placement: Placement::HardOnly(targets, slowdown),
            effective: hard,
            relaxed: expr.count_soft_leaves().max(1),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_constraints::{
        AttributeVector, Constraint, ConstraintKind, ConstraintOp, FeasibilityIndex, Isa,
    };
    use phoenix_sim::{Scheduler, SimConfig, Simulation};
    use phoenix_traces::{Job, JobId, Trace};

    /// A probe scheduler that records negotiation outcomes.
    #[derive(Debug, Default)]
    struct Recorder {
        outcomes: Vec<Option<(usize, f64)>>,
    }

    impl Scheduler for Recorder {
        fn name(&self) -> &str {
            "recorder"
        }

        fn on_job_arrival(&mut self, job: JobId, ctx: &mut phoenix_sim::SimCtx<'_>) {
            let set = ctx.job(job).effective();
            let table = CrvTable::new();
            match negotiate_targets(ctx, set, 2, &table, |_| false) {
                Some(n) => {
                    self.outcomes
                        .push(Some((n.relaxed, n.placement.slowdown())));
                    ctx.job_mut(job).set_effective(n.effective);
                    let worker = n.placement.workers()[0];
                    let mut probe = ctx.new_probe(job);
                    probe.slowdown = n.placement.slowdown();
                    ctx.send_probe(worker, probe);
                }
                None => {
                    self.outcomes.push(None);
                    ctx.fail_job(job);
                }
            }
        }
    }

    /// Cluster: 4 identical x86 8-core machines at 2.2 GHz.
    fn uniform_cluster() -> Vec<AttributeVector> {
        (0..4).map(|_| AttributeVector::default()).collect()
    }

    fn run_with(
        constraints: Vec<Constraint>,
    ) -> (phoenix_sim::SimResult, Vec<Option<(usize, f64)>>) {
        let set = ConstraintSet::from_constraints(constraints);
        let jobs = vec![Job {
            id: JobId(0),
            arrival_s: 0.0,
            task_durations_s: vec![1.0],
            estimated_task_duration_s: 1.0,
            constraints: set,
            short: true,
            user: 0,
        }];
        let sim = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(uniform_cluster()),
            &Trace::new("t", jobs),
            Box::new(Recorder::default()),
            1,
        );
        // Scheduler is moved in; outcomes inspected via counters instead.
        let result = sim.run();
        // Recorder is consumed by the run; reconstruct expectations from
        // counters where needed. For direct outcome checks, re-run below.
        (result, Vec::new())
    }

    #[test]
    fn satisfiable_set_needs_no_relaxation() {
        let (result, _) = run_with(vec![Constraint::hard(
            ConstraintKind::NumCores,
            ConstraintOp::Gt,
            4,
        )]);
        assert_eq!(result.counters.jobs_completed, 1);
        assert_eq!(result.counters.relaxed_tasks, 0);
    }

    #[test]
    fn soft_constraint_is_negotiated_away() {
        // Clock > 3000 is unsatisfiable on the 2.2 GHz cluster but soft.
        let (result, _) = run_with(vec![
            Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Gt, 4),
            Constraint::soft(ConstraintKind::CpuClockSpeed, ConstraintOp::Gt, 3_000),
        ]);
        assert_eq!(result.counters.jobs_completed, 1);
        assert_eq!(result.counters.jobs_failed, 0);
        assert_eq!(
            result.counters.relaxed_tasks, 1,
            "task must run with a relaxation slowdown"
        );
    }

    #[test]
    fn hard_unsatisfiable_job_fails() {
        let (result, _) = run_with(vec![Constraint::hard(
            ConstraintKind::Architecture,
            ConstraintOp::Eq,
            Isa::Power as u64,
        )]);
        assert_eq!(result.counters.jobs_failed, 1);
        assert_eq!(result.counters.jobs_completed, 0);
    }

    #[test]
    fn most_contended_soft_constraint_is_relaxed_first() {
        // Direct unit-level check of victim ordering.
        let set = ConstraintSet::from_constraints(vec![
            Constraint::soft(ConstraintKind::CpuClockSpeed, ConstraintOp::Gt, 9_999),
            Constraint::soft(ConstraintKind::EthernetSpeed, ConstraintOp::Gt, 999_999),
        ]);
        let mut table = CrvTable::new();
        table.add_demand(ConstraintKind::EthernetSpeed, 100.0);
        table.set_supply(ConstraintKind::EthernetSpeed, 1.0);
        table.add_demand(ConstraintKind::CpuClockSpeed, 1.0);
        table.set_supply(ConstraintKind::CpuClockSpeed, 100.0);
        // Relax order: ethernet (ratio 100) before clock (0.01). Both are
        // unsatisfiable here, so both get relaxed; the negotiation must
        // terminate with the empty set (feasible on any cluster).
        let jobs = vec![Job {
            id: JobId(0),
            arrival_s: 0.0,
            task_durations_s: vec![1.0],
            estimated_task_duration_s: 1.0,
            constraints: set.clone(),
            short: true,
            user: 0,
        }];
        #[derive(Debug)]
        struct Check {
            table: CrvTable,
            set: ConstraintSet,
        }
        impl Scheduler for Check {
            fn name(&self) -> &str {
                "check"
            }
            fn on_job_arrival(&mut self, job: JobId, ctx: &mut phoenix_sim::SimCtx<'_>) {
                let set = ctx.intern(&self.set);
                let n = negotiate_targets(ctx, set, 1, &self.table, |_| false)
                    .expect("empty set is always feasible");
                assert_eq!(n.relaxed, 2);
                assert!(ctx.sets().get(n.effective).is_empty());
                // Slowdown is the max of both kinds: ethernet 1.91.
                assert!((n.placement.slowdown() - 1.91).abs() < 1e-9);
                ctx.fail_job(job); // end the run quickly
            }
        }
        let sim = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(uniform_cluster()),
            &Trace::new("t", jobs),
            Box::new(Check { table, set }),
            1,
        );
        let result = sim.run();
        assert_eq!(result.counters.jobs_failed, 1);
    }

    /// Drives `negotiate_targets` once against the uniform 4-node cluster
    /// and hands the outcome (with the input set, and the effective set of
    /// a successful negotiation) to `verify`.
    fn negotiate_once(
        constraints: Vec<Constraint>,
        verify: impl Fn(&ConstraintSet, Option<(&Negotiation, &ConstraintSet)>) + 'static,
    ) {
        struct Harness<F> {
            set: ConstraintSet,
            verify: F,
        }
        impl<F: Fn(&ConstraintSet, Option<(&Negotiation, &ConstraintSet)>)> Scheduler for Harness<F> {
            fn name(&self) -> &str {
                "harness"
            }
            fn on_job_arrival(&mut self, job: JobId, ctx: &mut phoenix_sim::SimCtx<'_>) {
                let set = ctx.intern(&self.set);
                let n = negotiate_targets(ctx, set, 2, &CrvTable::new(), |_| false);
                let outcome = n.as_ref().map(|n| (n, ctx.sets().get(n.effective)));
                (self.verify)(&self.set, outcome);
                ctx.fail_job(job); // end the run quickly
            }
        }
        let set = ConstraintSet::from_constraints(constraints);
        let jobs = vec![Job {
            id: JobId(0),
            arrival_s: 0.0,
            task_durations_s: vec![1.0],
            estimated_task_duration_s: 1.0,
            constraints: set.clone(),
            short: true,
            user: 0,
        }];
        Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(uniform_cluster()),
            &Trace::new("t", jobs),
            Box::new(Harness { set, verify }),
            1,
        )
        .run();
    }

    /// Negotiation may only ever drop *soft* constraints: every hard
    /// constraint of the input set must survive into the effective set,
    /// even when several soft constraints are relaxed around it.
    #[test]
    fn negotiation_never_drops_a_hard_constraint() {
        negotiate_once(
            vec![
                Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Gt, 4),
                Constraint::hard(
                    ConstraintKind::Architecture,
                    ConstraintOp::Eq,
                    Isa::X86 as u64,
                ),
                // Both soft constraints are unsatisfiable on the 2.2 GHz
                // uniform cluster and must be negotiated away.
                Constraint::soft(ConstraintKind::CpuClockSpeed, ConstraintOp::Gt, 9_999),
                Constraint::soft(ConstraintKind::EthernetSpeed, ConstraintOp::Gt, 999_999),
            ],
            |input, n| {
                let (n, effective) = n.expect("hard subset is satisfiable");
                assert_eq!(n.relaxed, 2, "both soft constraints relaxed");
                for hard in input.hard_constraints() {
                    assert!(
                        effective.iter().any(|c| c == hard),
                        "hard constraint dropped by negotiation: {hard:?}"
                    );
                }
                assert!(
                    effective.soft_constraints().next().is_none(),
                    "unsatisfiable soft constraints must all be gone"
                );
            },
        );
    }

    /// A set whose *hard* subset is unsatisfiable is rejected outright —
    /// never silently relaxed — no matter how many soft constraints could
    /// be dropped around it.
    #[test]
    fn infeasible_hard_subset_is_rejected_not_relaxed() {
        negotiate_once(
            vec![
                Constraint::hard(
                    ConstraintKind::Architecture,
                    ConstraintOp::Eq,
                    Isa::Power as u64,
                ),
                Constraint::soft(ConstraintKind::CpuClockSpeed, ConstraintOp::Gt, 9_999),
                Constraint::soft(ConstraintKind::NumCores, ConstraintOp::Gt, 4),
            ],
            |_, n| {
                assert!(
                    n.is_none(),
                    "an unsatisfiable hard constraint must fail the job, got {n:?}"
                );
            },
        );
    }
}
