//! The centralized placement path of the hybrid schedulers.
//!
//! Hawk, Eagle, Mercury and Phoenix schedule **long jobs centrally**, and
//! Monolithic schedules every job that way: each task is early-bound to
//! the feasible worker with the least estimated queued work, skipping the
//! partition reserved for short tasks. [`place_long_job`] is that one
//! placement function. Callers pass the partition size
//! ([`crate::BaselineConfig::reserved_workers`], or 0 for Monolithic).
//!
//! Its fallback ladder, in order: the feasible workers outside the
//! partition; all feasible workers when the partition holds every one of
//! them; the hard-only subset (tasks carry the Table II slowdown of the
//! dropped soft constraints) when the full set is infeasible; and failing
//! the job when even the hard subset is. Under fault injection live
//! workers are preferred over dead ones.

use phoenix_constraints::ones;
use phoenix_sim::{SimCtx, WorkerId};
use phoenix_traces::JobId;

use crate::placement::{estimated_queue_work_us, relaxation_slowdown};

/// Places every task of (long) `job` onto the least-loaded feasible
/// workers with index at or above `reserved_workers`, early-bound (the
/// workers below that bound form the partition reserved for short tasks).
/// Returns the worker chosen for each task (one entry per placed task), or
/// `None` when the job is hard-unsatisfiable (the job is then failed).
///
/// Stateless: load estimates are recomputed from the live simulation state
/// at each placement (the central scheduler of Hawk/Eagle has a global
/// view). Placement spreads a job's tasks: each task goes to the currently
/// least-loaded candidate, accounting for the work this very job has just
/// queued.
pub fn place_long_job(
    ctx: &mut SimCtx<'_>,
    job: JobId,
    reserved_workers: usize,
) -> Option<Vec<WorkerId>> {
    let set = ctx.job(job).effective();
    let mut slowdown = 1.0f64;
    // Feasible workers in ascending id order, walked off the set's
    // bitset so no id list is built for the (large) long-job classes.
    let bits = ctx.feasible_bits(set);
    let mut feasible: Vec<WorkerId> = ones(bits)
        .map(WorkerId)
        .filter(|w| w.index() >= reserved_workers)
        .collect();
    if feasible.is_empty() {
        // Reserved partition may have swallowed every feasible worker;
        // correctness beats the partition rule.
        feasible = ones(bits).map(WorkerId).collect();
    }
    if feasible.is_empty() {
        let hard = ctx.sets().get(set).hard_only();
        let hard = ctx.intern(&hard);
        feasible = ones(ctx.feasible_bits(hard)).map(WorkerId).collect();
        if feasible.is_empty() {
            ctx.fail_job(job);
            return None;
        }
        slowdown = relaxation_slowdown(ctx.sets().get(set));
        ctx.job_mut(job).set_effective(hard);
    }

    // Under fault injection, prefer live workers when any exist; if the
    // whole feasible set is down, keep it — probes bounced off dead
    // workers re-enter placement via the retry path. (Pure filter, no
    // RNG: draw-neutral when every worker is alive.)
    if ctx.config().faults.is_active() {
        let alive: Vec<WorkerId> = feasible
            .iter()
            .copied()
            .filter(|&w| ctx.worker(w).is_alive())
            .collect();
        if !alive.is_empty() {
            feasible = alive;
        }
    }

    // Load-ordered placement with per-placement adjustment: track the
    // extra work we assign within this job so its tasks spread.
    let mut loads: Vec<(u64, WorkerId)> = feasible
        .iter()
        .map(|&w| (estimated_queue_work_us(ctx.state(), w), w))
        .collect();
    let mut placed = Vec::with_capacity(ctx.job(job).pending_tasks());
    while ctx.job(job).has_pending() {
        let duration = ctx.job_mut(job).take_task();
        let effective = ((duration as f64) * slowdown).round() as u64;
        // Least-loaded candidate.
        let (best_idx, _) = loads
            .iter()
            .enumerate()
            .min_by_key(|(_, (load, w))| (*load, w.0))
            .expect("feasible is non-empty");
        let worker = loads[best_idx].1;
        loads[best_idx].0 += effective.max(1);
        let mut probe = ctx.new_bound_probe(job, duration);
        probe.slowdown = slowdown;
        ctx.send_probe(worker, probe);
        placed.push(worker);
    }
    Some(placed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_constraints::{
        AttributeVector, Constraint, ConstraintKind, ConstraintOp, ConstraintSet, FeasibilityIndex,
        MachinePopulation, PopulationProfile, SetId,
    };
    use phoenix_sim::{FaultPlan, Scheduler, SimConfig, SimDuration, SimResult, Simulation};
    use phoenix_traces::{Job, JobId, Trace};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// What one `place_long_job` call returned, and the job's effective
    /// set before and after it (plus the interned hard subset).
    #[derive(Debug)]
    struct Placed {
        workers: Option<Vec<WorkerId>>,
        before: SetId,
        after: SetId,
        hard: SetId,
    }

    /// A scheduler that places everything through `place_long_job`,
    /// optionally crashing some workers just before its first placement.
    #[derive(Debug)]
    struct CentralOnly {
        reserved: usize,
        crash_first: Vec<WorkerId>,
        log: Rc<RefCell<Vec<Placed>>>,
    }

    impl Scheduler for CentralOnly {
        fn name(&self) -> &str {
            "central-only"
        }

        fn on_job_arrival(&mut self, job: JobId, ctx: &mut SimCtx<'_>) {
            for worker in std::mem::take(&mut self.crash_first) {
                ctx.state_mut().crash_worker(worker);
            }
            let before = ctx.job(job).effective();
            let hard = ctx.sets().get(before).hard_only();
            let hard = ctx.intern(&hard);
            let workers = place_long_job(ctx, job, self.reserved);
            let after = ctx.job(job).effective();
            self.log.borrow_mut().push(Placed {
                workers,
                before,
                after,
                hard,
            });
        }
    }

    fn run_on(
        config: SimConfig,
        machines: Vec<AttributeVector>,
        reserved: usize,
        crash_first: Vec<WorkerId>,
        jobs: Vec<Job>,
    ) -> (SimResult, Vec<Placed>) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let trace = Trace::new("t", jobs);
        let result = Simulation::new(
            config,
            FeasibilityIndex::new(machines),
            &trace,
            Box::new(CentralOnly {
                reserved,
                crash_first,
                log: Rc::clone(&log),
            }),
            3,
        )
        .run();
        let placed = log.take();
        (result, placed)
    }

    fn run(reserved: usize, jobs: Vec<Job>, nodes: usize) -> SimResult {
        let mut rng = StdRng::seed_from_u64(3);
        let cluster =
            MachinePopulation::generate(PopulationProfile::enterprise_like(), nodes, &mut rng);
        let machines = cluster.into_machines();
        run_on(SimConfig::default(), machines, reserved, Vec::new(), jobs).0
    }

    fn job(id: u32, tasks: usize, dur: f64) -> Job {
        Job {
            id: JobId(id),
            arrival_s: 0.0,
            task_durations_s: vec![dur; tasks],
            estimated_task_duration_s: dur,
            constraints: Default::default(),
            short: false,
            user: 0,
        }
    }

    fn constrained_job(tasks: usize, dur: f64, constraints: Vec<Constraint>) -> Job {
        Job {
            constraints: ConstraintSet::from_constraints(constraints),
            ..job(0, tasks, dur)
        }
    }

    /// Eight workers: 0..4 have 16 cores and 10 Gb/s NICs, 4..8 have 4
    /// cores and 1 Gb/s NICs.
    fn split_cluster() -> Vec<AttributeVector> {
        (0..8)
            .map(|i| {
                let (cores, mbps) = if i < 4 { (16, 10_000) } else { (4, 1_000) };
                AttributeVector::builder()
                    .num_cores(cores)
                    .ethernet_mbps(mbps)
                    .build()
            })
            .collect()
    }

    fn ids(workers: &[WorkerId]) -> Vec<u32> {
        let mut ids: Vec<u32> = workers.iter().map(|w| w.0).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn all_tasks_complete_and_are_bound() {
        let result = run(0, vec![job(0, 20, 5.0), job(1, 10, 3.0)], 10);
        assert_eq!(result.counters.jobs_completed, 2);
        assert_eq!(result.counters.bound_placements, 30);
        assert_eq!(result.counters.probes_sent, 0);
        assert_eq!(result.incomplete_jobs, 0);
    }

    #[test]
    fn load_spreading_parallelizes_one_job() {
        // 10 equal tasks on 10 free workers must finish in ~1 task time,
        // not serially.
        let result = run(0, vec![job(0, 10, 10.0)], 10);
        let makespan = result.metrics.makespan.as_secs_f64();
        assert!(
            makespan < 12.0,
            "tasks must spread across workers, makespan {makespan}"
        );
    }

    #[test]
    fn reserved_partition_is_avoided() {
        // 4 of 8 workers reserved; jobs must still complete using the rest.
        let result = run(4, vec![job(0, 8, 2.0)], 8);
        assert_eq!(result.counters.jobs_completed, 1);
        // With only 4 usable workers and 8 tasks, makespan ~2 rounds.
        assert!(result.metrics.makespan.as_secs_f64() >= 4.0);
    }

    #[test]
    fn fully_reserved_feasible_set_places_inside_the_partition() {
        // Only workers 0..4 satisfy the job, and all four are reserved:
        // the partition gives way, with the full set kept (no relaxation,
        // so the satisfied soft constraint costs no slowdown).
        let job = constrained_job(
            4,
            100.0,
            vec![
                Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Gt, 8),
                Constraint::soft(ConstraintKind::EthernetSpeed, ConstraintOp::Gt, 5_000),
            ],
        );
        let (result, placed) = run_on(SimConfig::default(), split_cluster(), 4, vec![], vec![job]);
        assert_eq!(placed.len(), 1);
        let p = &placed[0];
        assert_eq!(ids(p.workers.as_deref().expect("placed")), vec![0, 1, 2, 3]);
        assert_eq!(p.after, p.before, "the full set stays effective");
        assert_eq!(result.counters.jobs_completed, 1);
        assert_eq!(result.metrics.busy_us, 4 * 100_000_000);
    }

    #[test]
    fn infeasible_full_set_relaxes_to_the_hard_subset_with_table_ii_slowdown() {
        // Hard: fewer than 8 cores (workers 4..8). Soft: a 10 Gb/s NIC,
        // which none of those has. The job runs on the hard subset, each
        // task slowed by Table II's Ethernet factor.
        let job = constrained_job(
            4,
            100.0,
            vec![
                Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Lt, 8),
                Constraint::soft(ConstraintKind::EthernetSpeed, ConstraintOp::Gt, 5_000),
            ],
        );
        let (result, placed) = run_on(SimConfig::default(), split_cluster(), 0, vec![], vec![job]);
        let p = &placed[0];
        assert_eq!(ids(p.workers.as_deref().expect("placed")), vec![4, 5, 6, 7]);
        assert_ne!(p.before, p.hard);
        assert_eq!(
            p.after, p.hard,
            "the job's effective set is the hard subset"
        );
        assert_eq!(result.counters.jobs_completed, 1);
        let slowdown =
            phoenix_constraints::ConstraintModel::relative_slowdown(ConstraintKind::EthernetSpeed);
        let per_task = (100_000_000.0 * slowdown).round() as u64;
        assert_eq!(result.metrics.busy_us, 4 * per_task);
    }

    #[test]
    fn hard_unsatisfiable_job_fails_and_places_nothing() {
        let job = constrained_job(
            3,
            100.0,
            vec![Constraint::hard(
                ConstraintKind::NumCores,
                ConstraintOp::Gt,
                64,
            )],
        );
        let (result, placed) = run_on(SimConfig::default(), split_cluster(), 0, vec![], vec![job]);
        assert!(placed[0].workers.is_none());
        assert_eq!(placed[0].after, placed[0].before);
        assert_eq!(result.counters.jobs_failed, 1);
        assert_eq!(result.counters.bound_placements, 0);
        assert_eq!(result.metrics.busy_us, 0);
    }

    #[test]
    fn under_faults_only_live_workers_are_chosen() {
        // Faults are active (heartbeat jitter only, so no fault event or
        // draw happens here) and workers 0..4 are down: left to load
        // alone, ties on zero load would pick them first.
        let config = SimConfig {
            faults: FaultPlan {
                heartbeat_jitter: SimDuration::from_millis(1),
                ..FaultPlan::none()
            },
            ..SimConfig::default()
        };
        let dead = (0..4).map(WorkerId).collect();
        let (result, placed) = run_on(config, split_cluster(), 0, dead, vec![job(0, 8, 10.0)]);
        let workers = placed[0].workers.as_deref().expect("placed");
        assert_eq!(workers.len(), 8);
        assert!(
            workers.iter().all(|w| w.0 >= 4),
            "dead workers chosen: {workers:?}"
        );
        assert_eq!(ids(workers), vec![4, 4, 5, 5, 6, 6, 7, 7]);
        assert_eq!(result.counters.jobs_completed, 1);
        assert_eq!(result.counters.probe_retries, 0);
    }
}
