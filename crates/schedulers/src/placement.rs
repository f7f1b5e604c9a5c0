//! Constraint-aware probe/task target selection.
//!
//! All the `-C` baselines handle constraints "trivially" (Table I): they
//! sample placement targets among the workers that satisfy the task's
//! constraint set, with no queue-state awareness. When *no* worker satisfies
//! the full set, the baselines fall back to the hard subset (otherwise the
//! job could never run); tasks placed that way execute with the relative
//! slowdown of the dropped soft constraints, mirroring the penalty Table II
//! associates with unsatisfied resource preferences.

use phoenix_constraints::{ConstraintModel, ConstraintSet, PlacementConstraint, SetId};
use phoenix_sim::{SimCtx, SimState, WorkerId};
use phoenix_traces::JobId;

/// How a job's constraints were satisfied at placement time.
#[derive(Debug, Clone, PartialEq)]
pub enum Placement {
    /// Every constraint satisfied.
    Full(Vec<WorkerId>),
    /// Only the hard subset could be satisfied; tasks run with `slowdown`.
    HardOnly(Vec<WorkerId>, f64),
}

impl Placement {
    /// The selected workers.
    pub fn workers(&self) -> &[WorkerId] {
        match self {
            Placement::Full(w) | Placement::HardOnly(w, _) => w,
        }
    }

    /// The execution-time multiplier for tasks placed this way.
    pub fn slowdown(&self) -> f64 {
        match self {
            Placement::Full(_) => 1.0,
            Placement::HardOnly(_, s) => *s,
        }
    }
}

/// The slowdown applied when soft constraints are dropped: the maximum
/// Table II relative slowdown among the dropped kinds (1.0 if none).
pub fn relaxation_slowdown(set: &ConstraintSet) -> f64 {
    set.soft_constraints()
        .map(|c| ConstraintModel::relative_slowdown(c.kind))
        .fold(1.0, f64::max)
}

/// Reorders `targets` to honor a job-level affinity preference (§III-A):
///
/// * [`PlacementConstraint::Spread`] — fault tolerance: prefer one worker
///   per rack, round-robin across racks;
/// * [`PlacementConstraint::Colocate`] — data locality: prefer the rack
///   holding the most candidates.
///
/// Preferences are advisory (the paper's affinity constraints are
/// preferences, not requirements): every input worker is kept, only the
/// order changes — callers that consume a prefix therefore honor the
/// preference when capacity allows.
pub fn apply_placement_preference(
    state: &SimState,
    targets: Vec<WorkerId>,
    placement: PlacementConstraint,
) -> Vec<WorkerId> {
    if targets.len() < 2 || placement == PlacementConstraint::None {
        return targets;
    }
    let machines = state.feasibility.machines();
    // Group by rack with a linear probe: candidate lists are a handful of
    // workers, where a Vec beats hashing. Insertion order within a rack is
    // preserved (it is part of the deterministic output order).
    let mut racks: Vec<(u32, Vec<WorkerId>)> = Vec::new();
    for &w in &targets {
        let rack = machines[w.index()].rack;
        match racks.iter_mut().find(|(r, _)| *r == rack) {
            Some((_, members)) => members.push(w),
            None => racks.push((rack, vec![w])),
        }
    }
    match placement {
        PlacementConstraint::Spread => {
            // Deterministic rack order, then round-robin one worker per
            // rack per round.
            racks.sort_by_key(|(rack, _)| *rack);
            let mut out = Vec::with_capacity(targets.len());
            let mut round = 0usize;
            loop {
                let mut any = false;
                for (_, members) in &racks {
                    if let Some(&w) = members.get(round) {
                        out.push(w);
                        any = true;
                    }
                }
                if !any {
                    break;
                }
                round += 1;
            }
            out
        }
        PlacementConstraint::Colocate => {
            // Largest rack first (ties toward lower rack id).
            racks.sort_by_key(|(rack, members)| (std::cmp::Reverse(members.len()), *rack));
            racks.into_iter().flat_map(|(_, members)| members).collect()
        }
        PlacementConstraint::None => targets,
    }
}

/// Samples up to `count` distinct workers for a job's constraint set,
/// excluding workers for which `exclude` returns true, and ordering the
/// result to honor the set's affinity preference.
///
/// Fallback ladder:
/// 1. full constraint set, honoring `exclude`;
/// 2. full constraint set, ignoring `exclude` (the exclusion is advisory —
///    e.g. Eagle's divide — never correctness);
/// 3. hard constraints only (soft constraints dropped, slowdown applied);
/// 4. under fault injection only: the same two sets ignoring worker
///    aliveness — every feasible worker may be down mid-outage, and a probe
///    sent to a dead worker just bounces into the engine's retry path;
/// 5. `None` — the job is hard-unsatisfiable on this cluster.
pub fn choose_targets(
    ctx: &mut SimCtx<'_>,
    set: SetId,
    count: usize,
    mut exclude: impl FnMut(u32) -> bool,
) -> Option<Placement> {
    let placement = ctx.sets().get(set).placement();
    // Affinity preferences profit from a wider candidate pool to pick
    // racks from.
    let sample = if placement == PlacementConstraint::None {
        count
    } else {
        count * 2
    };
    let arrange = |state: &SimState, targets: Vec<WorkerId>| {
        apply_placement_preference(state, targets, placement)
    };
    let targets = ctx.sample_feasible_workers_excluding(set, sample, &mut exclude);
    if !targets.is_empty() {
        let targets = arrange(ctx.state(), targets);
        return Some(Placement::Full(targets));
    }
    let targets = ctx.sample_feasible_workers(set, sample);
    if !targets.is_empty() {
        let targets = arrange(ctx.state(), targets);
        return Some(Placement::Full(targets));
    }
    let hard = ctx.sets().get(set).hard_only();
    let hard = ctx.intern(&hard);
    let slowdown = relaxation_slowdown(ctx.sets().get(set));
    let targets = ctx.sample_feasible_workers(hard, sample);
    if !targets.is_empty() {
        let targets = arrange(ctx.state(), targets);
        return Some(Placement::HardOnly(targets, slowdown));
    }
    // Gated on fault injection: with faults disabled these rungs are never
    // reached for satisfiable jobs, and skipping them keeps unsatisfiable
    // jobs from consuming extra RNG draws.
    if ctx.config().faults.is_active() {
        let targets = ctx.sample_feasible_workers_any(set, sample);
        if !targets.is_empty() {
            let targets = arrange(ctx.state(), targets);
            return Some(Placement::Full(targets));
        }
        let targets = ctx.sample_feasible_workers_any(hard, sample);
        if !targets.is_empty() {
            let targets = arrange(ctx.state(), targets);
            return Some(Placement::HardOnly(targets, slowdown));
        }
    }
    None
}

/// Resolves a job's constraint level once, up front: its effective set if
/// any worker satisfies it (no slowdown), else its hard subset with the
/// [`relaxation_slowdown`] of the dropped soft constraints, recorded as the
/// job's new effective set. Fails the job and returns `None` when even the
/// hard subset is unsatisfiable.
pub fn resolve_constraint_level(ctx: &mut SimCtx<'_>, job: JobId) -> Option<(SetId, f64)> {
    let set = ctx.effective(job);
    if ctx.count_feasible(set) > 0 {
        return Some((set, 1.0));
    }
    let hard = ctx.sets().get(set).hard_only();
    let hard = ctx.intern(&hard);
    if ctx.count_feasible(hard) == 0 {
        ctx.fail_job(job);
        return None;
    }
    let slowdown = relaxation_slowdown(ctx.sets().get(set));
    ctx.set_effective(job, hard);
    Some((hard, slowdown))
}

/// Sends `count` speculative probes for `job` round-robin over `placement`'s
/// workers, applying its slowdown, and records the effective constraint set
/// if soft constraints were dropped.
pub fn send_speculative_probes(
    ctx: &mut SimCtx<'_>,
    job: JobId,
    placement: &Placement,
    count: usize,
) {
    if let Placement::HardOnly(..) = placement {
        let hard = ctx.job(job).constraints.hard_only();
        let hard = ctx.intern(&hard);
        ctx.set_effective(job, hard);
    }
    let slowdown = placement.slowdown();
    let workers = placement.workers();
    for i in 0..count {
        let worker = workers[i % workers.len()];
        let mut probe = ctx.new_probe(job);
        probe.slowdown = slowdown;
        ctx.send_probe(worker, probe);
    }
}

/// Estimated work queued at a worker, microseconds: remaining runtime of the
/// executing task, plus bound task durations, plus the estimated durations
/// of speculative probes.
///
/// O(1), not O(queue): all three components are aggregates the worker
/// maintains incrementally ([`phoenix_sim::Worker::running_work_us`],
/// [`phoenix_sim::Worker::queued_bound_work_us`],
/// [`phoenix_sim::Worker::queued_spec_est_us`]), so the central planner's
/// walk over every feasible worker never reads a task buffer.
pub fn estimated_queue_work_us(state: &SimState, worker: WorkerId) -> u64 {
    let w = state.worker(worker);
    w.queued_bound_work_us() + w.queued_spec_est_us() + w.running_work_us(state.now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_constraints::{
        Constraint, ConstraintKind, ConstraintOp, FeasibilityIndex, MachinePopulation,
    };
    use phoenix_sim::{RandomScheduler, SimConfig, Simulation};
    use phoenix_traces::{TraceGenerator, TraceProfile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn relaxation_slowdown_uses_max_table_ii_factor() {
        let set = ConstraintSet::from_constraints(vec![
            Constraint::soft(ConstraintKind::CpuClockSpeed, ConstraintOp::Gt, 2_500),
            Constraint::soft(ConstraintKind::EthernetSpeed, ConstraintOp::Gt, 900),
        ]);
        // Ethernet 1.91 > clock 1.76.
        assert!((relaxation_slowdown(&set) - 1.91).abs() < 1e-9);
        assert_eq!(relaxation_slowdown(&ConstraintSet::unconstrained()), 1.0);
    }

    #[test]
    fn placement_accessors() {
        let full = Placement::Full(vec![WorkerId(1)]);
        assert_eq!(full.slowdown(), 1.0);
        assert_eq!(full.workers(), &[WorkerId(1)]);
        let hard = Placement::HardOnly(vec![WorkerId(2)], 1.9);
        assert_eq!(hard.slowdown(), 1.9);
    }

    #[test]
    fn spread_prefers_distinct_racks() {
        use phoenix_constraints::AttributeVector;
        // 3 racks × 3 workers each.
        let machines: Vec<AttributeVector> = (0..9u32)
            .map(|i| AttributeVector::builder().rack(i / 3).build())
            .collect();
        let trace = phoenix_traces::Trace::new("t", vec![]);
        let state = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(machines),
            &trace,
            Box::new(RandomScheduler::new(1)),
            1,
        )
        .into_state_for_tests();
        // All of rack 0, then two from rack 1, one from rack 2.
        let targets = vec![0, 1, 2, 3, 4, 6].into_iter().map(WorkerId).collect();
        let spread = apply_placement_preference(
            &state,
            targets,
            phoenix_constraints::PlacementConstraint::Spread,
        );
        // First three picks cover all three racks.
        let racks: Vec<u32> = spread[..3]
            .iter()
            .map(|w| state.feasibility.machines()[w.index()].rack)
            .collect();
        let mut sorted = racks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "spread prefix must cover racks: {racks:?}");
        assert_eq!(spread.len(), 6, "no worker lost");
    }

    #[test]
    fn colocate_prefers_the_biggest_rack() {
        use phoenix_constraints::AttributeVector;
        let machines: Vec<AttributeVector> = (0..9u32)
            .map(|i| AttributeVector::builder().rack(i / 3).build())
            .collect();
        let trace = phoenix_traces::Trace::new("t", vec![]);
        let state = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(machines),
            &trace,
            Box::new(RandomScheduler::new(1)),
            1,
        )
        .into_state_for_tests();
        // One from rack 0, all three from rack 1.
        let targets = vec![0, 3, 4, 5].into_iter().map(WorkerId).collect();
        let colocated = apply_placement_preference(
            &state,
            targets,
            phoenix_constraints::PlacementConstraint::Colocate,
        );
        let first_racks: Vec<u32> = colocated[..3]
            .iter()
            .map(|w| state.feasibility.machines()[w.index()].rack)
            .collect();
        assert_eq!(first_racks, vec![1, 1, 1], "{colocated:?}");
        assert_eq!(colocated.len(), 4);
    }

    #[test]
    fn no_preference_is_identity() {
        use phoenix_constraints::AttributeVector;
        let machines: Vec<AttributeVector> = (0..4u32)
            .map(|i| AttributeVector::builder().rack(i).build())
            .collect();
        let trace = phoenix_traces::Trace::new("t", vec![]);
        let state = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(machines),
            &trace,
            Box::new(RandomScheduler::new(1)),
            1,
        )
        .into_state_for_tests();
        let targets: Vec<WorkerId> = vec![2, 0, 3].into_iter().map(WorkerId).collect();
        let same = apply_placement_preference(
            &state,
            targets.clone(),
            phoenix_constraints::PlacementConstraint::None,
        );
        assert_eq!(same, targets);
    }

    #[test]
    fn estimated_queue_work_accounts_running_bound_and_speculative() {
        // Build a tiny simulation to obtain a real SimState.
        let profile = TraceProfile::yahoo();
        let mut rng = StdRng::seed_from_u64(1);
        let cluster = MachinePopulation::generate(profile.population.clone(), 4, &mut rng);
        let trace = TraceGenerator::new(profile, 1).generate(3, 4, 0.3);
        let sim = Simulation::new(
            SimConfig::default(),
            FeasibilityIndex::new(cluster.into_machines()),
            &trace,
            Box::new(RandomScheduler::new(1)),
            1,
        );
        // Fresh state: all queues empty.
        let state = sim.state();
        assert_eq!(estimated_queue_work_us(state, WorkerId(0)), 0);
    }
}
