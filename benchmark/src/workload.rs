//! The benchmark's workloads, and the calls into each layer it times.

use std::time::Instant;

use phoenix_constraints::{AttributeVector, FeasibilityIndex, MachinePopulation};
use phoenix_core::{Phoenix, PhoenixConfig};
use phoenix_sim::{
    FaultPlan, FederationConfig, Scheduler, SimConfig, SimDuration, SimResult, Simulation,
};
use phoenix_traces::{Trace, TraceGenerator, TraceProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::timed::{HookTotals, TimedScheduler};

/// Workload names, in the order a full invocation runs them.
pub const NAMES: [&str; 4] = [
    "yahoo-5k-hiload",
    "yahoo-100k-idle",
    "yahoo-100k-fed16",
    "yahoo-expr3-faults",
];

/// Trace calibration shared by every workload: the `scale` bin's setting.
const GEN_UTIL: f64 = 0.9;

/// The trace and the cluster are the `scale` bin's inputs for this seed:
/// they define the workload, and seed 1 of `yahoo-5k-hiload` replays the
/// `BENCH_scale.json` yahoo/5000/50000 row. `--seed` re-draws only the
/// run's own randomness (probe sampling, steal victims, the fault
/// schedule). Re-drawing the trace or the cluster per seed moved tail
/// latencies 20–70% between seeds and throughput with them, wider than any
/// regression bound could be.
const INPUT_SEED: u64 = 1;

/// One fixed trace on one cluster, replayed open-loop in simulated time.
pub struct Workload {
    pub profile: TraceProfile,
    pub nodes: usize,
    pub jobs: usize,
    pub faults: FaultPlan,
    pub federation: FederationConfig,
}

/// What one set-up produced: the cluster and the trace.
pub struct Inputs {
    machines: Vec<AttributeVector>,
    trace: Trace,
}

impl Inputs {
    /// Whether two set-ups produced the same cluster and the same trace.
    pub fn same_as(&self, other: &Inputs) -> bool {
        self.machines == other.machines && self.trace.jobs() == other.trace.jobs()
    }
}

/// One simulation and its host seconds inside `Simulation::run`.
pub struct Pass {
    pub result: SimResult,
    pub run_s: f64,
    /// Per-hook totals, for a timed pass.
    pub hooks: Option<[HookTotals; 9]>,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let yahoo = |nodes, jobs| Workload {
            profile: TraceProfile::yahoo(),
            nodes,
            jobs,
            faults: FaultPlan::none(),
            federation: FederationConfig::off(),
        };
        match name {
            "yahoo-5k-hiload" => Some(yahoo(5_000, 50_000)),
            "yahoo-100k-idle" => Some(yahoo(100_000, 2_000)),
            "yahoo-100k-fed16" => Some(Workload {
                federation: FederationConfig::sharded(16, SimDuration::from_secs(2)),
                ..yahoo(100_000, 2_000)
            }),
            "yahoo-expr3-faults" => Some(Workload {
                profile: TraceProfile::yahoo_expr(3),
                faults: FaultPlan::reference(),
                ..yahoo(5_000, 25_000)
            }),
            _ => None,
        }
    }

    /// Generates the cluster and the trace and builds the feasibility index,
    /// returning the inputs and the host seconds of each of the three steps.
    /// Both generators are seeded as the bench runner's `run_spec_timed`
    /// seeds them for the `scale` bin's [`INPUT_SEED`] row.
    pub fn setup(&self) -> (Inputs, [f64; 3]) {
        let mut rng = StdRng::seed_from_u64(INPUT_SEED.wrapping_mul(0x9E37_79B9).wrapping_add(17));
        let gen_seed = INPUT_SEED ^ (self.jobs as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);

        let started = Instant::now();
        let population =
            MachinePopulation::generate(self.profile.population.clone(), self.nodes, &mut rng);
        let population_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let trace = TraceGenerator::new(self.profile.clone(), gen_seed)
            .generate(self.jobs, self.nodes, GEN_UTIL);
        let trace_s = started.elapsed().as_secs_f64();

        let machines = population.into_machines();
        let copy = machines.clone();
        let started = Instant::now();
        let index = FeasibilityIndex::new(copy);
        let index_s = started.elapsed().as_secs_f64();
        drop(index);

        (Inputs { machines, trace }, [population_s, trace_s, index_s])
    }

    /// Simulates `inputs` to completion on a fresh index and a fresh
    /// Phoenix, with `seed` driving every random draw of the run. A `timed`
    /// pass wraps Phoenix in a [`TimedScheduler`] and turns on the engine's
    /// profiler.
    pub fn simulate(&self, inputs: &Inputs, seed: u64, timed: bool) -> Pass {
        let config = SimConfig {
            record_task_waits: false,
            faults: self.faults,
            federation: self.federation,
            ..SimConfig::default()
        };
        let phoenix = Phoenix::new(PhoenixConfig::with_cutoff_s(self.profile.short_cutoff_s()));
        let (scheduler, table): (Box<dyn Scheduler>, _) = if timed {
            let (scheduler, table) = TimedScheduler::new(phoenix);
            (Box::new(scheduler), Some(table))
        } else {
            (Box::new(phoenix), None)
        };
        let index = FeasibilityIndex::new(inputs.machines.clone());
        let mut sim = Simulation::new(config, index, &inputs.trace, scheduler, seed);
        if timed {
            sim.enable_profiling();
        }
        let started = Instant::now();
        let result = sim.run();
        let run_s = started.elapsed().as_secs_f64();
        Pass {
            result,
            run_s,
            hooks: table.map(|t| *t.borrow()),
        }
    }
}
