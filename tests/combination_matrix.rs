//! Combination-matrix audit: every configuration the benchmark exercises,
//! crossed, on a small cluster.
//!
//! Phoenix and Hawk-C (whose work stealing tests set membership on the
//! thief) run under the `reference` fault plan over federation K ∈ {1, 4,
//! 16}, the flat `yahoo` and depth-3 `yahoo_expr(3)` constraint profiles,
//! and 1 or 2 slots per worker: 256 workers, 200 jobs. Every run must lose
//! no task, finish clean under the invariant auditor (in debug builds the
//! engine's own debug oracles run too), and digest the same on two threads
//! as serially.

use phoenix::bench::run_specs_parallel;
use phoenix::constraints::{FeasibilityIndex, MachinePopulation};
use phoenix::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One cell of the matrix: a runner spec plus the slot count, which
/// `RunSpec` does not carry.
#[derive(Clone)]
struct Cell {
    spec: RunSpec,
    slots: usize,
}

fn matrix() -> Vec<Cell> {
    let mut cells = Vec::new();
    for kind in [SchedulerKind::Phoenix, SchedulerKind::HawkC] {
        for profile in [TraceProfile::yahoo(), TraceProfile::yahoo_expr(3)] {
            for k in [1, 4, 16] {
                for slots in [1, 2] {
                    let mut spec = RunSpec::new(profile.clone(), kind)
                        .with_faults(FaultPlan::reference())
                        .with_federation(FederationConfig::sharded(
                            k,
                            SimDuration::from_millis(200),
                        ));
                    spec.nodes = 256;
                    spec.gen_nodes = 256;
                    spec.jobs = 200;
                    spec.gen_util = 0.7;
                    spec.seed = 11;
                    spec.record_task_waits = false;
                    cells.push(Cell { spec, slots });
                }
            }
        }
    }
    cells
}

/// Runs a cell the way `run_spec_timed` does, with the cell's slot count
/// and, when `audit` is set, the invariant auditor attached.
fn run_cell(cell: &Cell, audit: bool) -> SimResult {
    let spec = &cell.spec;
    let mut rng = StdRng::seed_from_u64(spec.seed.wrapping_mul(0x9E37_79B9).wrapping_add(17));
    let cluster =
        MachinePopulation::generate(spec.profile.population.clone(), spec.nodes, &mut rng);
    let trace = TraceGenerator::new(spec.profile.clone(), spec.gen_seed.unwrap_or(spec.seed))
        .generate(spec.jobs, spec.gen_nodes, spec.gen_util);
    let config = SimConfig {
        record_task_waits: spec.record_task_waits,
        faults: spec.faults,
        federation: spec.federation,
        slots_per_worker: cell.slots,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(
        config,
        FeasibilityIndex::new(cluster.into_machines()),
        &trace,
        spec.scheduler.build(spec.profile.short_cutoff_s()),
        spec.seed,
    );
    if audit {
        sim.enable_audit();
    }
    sim.run()
}

fn label(cell: &Cell) -> String {
    format!(
        "{} {} K={} slots={}",
        cell.spec.scheduler.name(),
        cell.spec.profile.name,
        cell.spec.federation.domains,
        cell.slots
    )
}

#[test]
fn every_combination_is_live_audited_and_parallel_stable() {
    let cells = matrix();
    assert_eq!(cells.len(), 24);
    let serial: Vec<u64> = cells.iter().map(|c| run_cell(c, false).digest()).collect();

    // The audited runs go on two threads: single-slot cells through the
    // runner's own pool, two-slot cells (which `RunSpec` cannot express)
    // through two scoped threads running the same helper.
    let (single, double): (Vec<usize>, Vec<usize>) =
        (0..cells.len()).partition(|&i| cells[i].slots == 1);
    let specs: Vec<RunSpec> = single
        .iter()
        .map(|&i| cells[i].spec.clone().with_audit())
        .collect();
    let pooled = run_specs_parallel(&specs, 2);
    let mut parallel: Vec<(usize, SimResult)> = single
        .iter()
        .copied()
        .zip(pooled.into_iter().map(|(result, _)| result))
        .collect();
    let halves = double.split_at(double.len() / 2);
    std::thread::scope(|scope| {
        let handles: Vec<_> = [halves.0, halves.1]
            .into_iter()
            .map(|half| {
                let cells = &cells;
                scope.spawn(move || {
                    half.iter()
                        .map(|&i| (i, run_cell(&cells[i], true)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            parallel.extend(handle.join().expect("no panics"));
        }
    });
    assert_eq!(parallel.len(), cells.len());

    for (i, result) in &parallel {
        let at = label(&cells[*i]);
        assert_eq!(result.lost_tasks, 0, "{at}: lost tasks");
        assert_eq!(result.incomplete_jobs, 0, "{at}: incomplete jobs");
        assert!(result.counters.worker_crashes > 0, "{at}: no fault fired");
        let report = result.audit.as_ref().expect("the auditor is attached");
        assert!(report.is_clean(), "{at}: audit violations: {report}");
        assert!(report.placements_checked > 0, "{at}: nothing audited");
        assert_eq!(
            result.digest(),
            serial[*i],
            "{at}: the parallel digest differs from the serial run"
        );
    }
}
