//! Single-run and batched experiment execution.

use rand::rngs::StdRng;
use rand::SeedableRng;

use phoenix_constraints::{FeasibilityIndex, MachinePopulation};
use phoenix_core::{Phoenix, PhoenixConfig};
use phoenix_schedulers::{
    BaselineConfig, ChoosyC, EagleC, HawkC, MercuryC, MonolithicC, SparrowC, YaqD,
};
use phoenix_sim::{
    FaultPlan, FederationConfig, JsonlSink, Scheduler, SimConfig, SimResult, Simulation,
};
use phoenix_traces::{TraceGenerator, TraceProfile};

/// The schedulers the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Phoenix (this paper).
    Phoenix,
    /// Eagle-C: the primary baseline.
    EagleC,
    /// Hawk-C.
    HawkC,
    /// Sparrow-C.
    SparrowC,
    /// Yaq-d.
    YaqD,
    /// Mercury-C: hybrid control plane with early binding.
    MercuryC,
    /// Monolithic-C: Borg/Mesos-style fully centralized early binding.
    MonolithicC,
    /// Choosy-C: constrained max-min fair centralized scheduling.
    ChoosyC,
    /// Phoenix without CRV reordering (ablation: pure Eagle-style SRPT with
    /// Phoenix's admission control).
    PhoenixNoCrv,
    /// Phoenix without admission control (ablation).
    PhoenixNoAdmission,
}

impl SchedulerKind {
    /// Display name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Phoenix => "phoenix",
            SchedulerKind::EagleC => "eagle-c",
            SchedulerKind::HawkC => "hawk-c",
            SchedulerKind::SparrowC => "sparrow-c",
            SchedulerKind::YaqD => "yaq-d",
            SchedulerKind::MercuryC => "mercury-c",
            SchedulerKind::MonolithicC => "monolithic-c",
            SchedulerKind::ChoosyC => "choosy-c",
            SchedulerKind::PhoenixNoCrv => "phoenix-no-crv",
            SchedulerKind::PhoenixNoAdmission => "phoenix-no-admission",
        }
    }

    /// Looks a scheduler kind up by its [`SchedulerKind::name`].
    pub fn by_name(name: &str) -> Option<Self> {
        [
            SchedulerKind::Phoenix,
            SchedulerKind::EagleC,
            SchedulerKind::HawkC,
            SchedulerKind::SparrowC,
            SchedulerKind::YaqD,
            SchedulerKind::MercuryC,
            SchedulerKind::MonolithicC,
            SchedulerKind::ChoosyC,
            SchedulerKind::PhoenixNoCrv,
            SchedulerKind::PhoenixNoAdmission,
        ]
        .into_iter()
        .find(|k| k.name() == name)
    }

    /// Instantiates the scheduler for a trace with the given short/long
    /// cutoff (seconds).
    pub fn build(self, cutoff_s: f64) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Phoenix => {
                Box::new(Phoenix::new(PhoenixConfig::with_cutoff_s(cutoff_s)))
            }
            SchedulerKind::EagleC => Box::new(EagleC::new(BaselineConfig::with_cutoff_s(cutoff_s))),
            SchedulerKind::HawkC => Box::new(HawkC::new(BaselineConfig::with_cutoff_s(cutoff_s))),
            SchedulerKind::SparrowC => {
                Box::new(SparrowC::new(BaselineConfig::with_cutoff_s(cutoff_s)))
            }
            SchedulerKind::YaqD => Box::new(YaqD::new(BaselineConfig::with_cutoff_s(cutoff_s))),
            SchedulerKind::MercuryC => {
                Box::new(MercuryC::new(BaselineConfig::with_cutoff_s(cutoff_s)))
            }
            SchedulerKind::MonolithicC => {
                Box::new(MonolithicC::new(BaselineConfig::with_cutoff_s(cutoff_s)))
            }
            SchedulerKind::ChoosyC => {
                Box::new(ChoosyC::new(BaselineConfig::with_cutoff_s(cutoff_s)))
            }
            SchedulerKind::PhoenixNoCrv => {
                let mut config = PhoenixConfig::with_cutoff_s(cutoff_s);
                config.crv_reordering = false;
                Box::new(Phoenix::new(config))
            }
            SchedulerKind::PhoenixNoAdmission => {
                let mut config = PhoenixConfig::with_cutoff_s(cutoff_s);
                config.admission_control = false;
                Box::new(Phoenix::new(config))
            }
        }
    }
}

/// One deterministic simulation run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Trace profile (Google / Cloudera / Yahoo).
    pub profile: TraceProfile,
    /// Scheduler under test.
    pub scheduler: SchedulerKind,
    /// Cluster size the run executes on.
    pub nodes: usize,
    /// Number of jobs in the trace.
    pub jobs: usize,
    /// Cluster size the trace's load was calibrated for (the sweep varies
    /// `nodes` against a fixed workload, like the paper).
    pub gen_nodes: usize,
    /// Target utilization at `gen_nodes`.
    pub gen_util: f64,
    /// RNG seed (cluster, trace and scheduler randomness all derive from
    /// it).
    pub seed: u64,
    /// Trace-generation seed override. `None` draws the workload from
    /// `seed`, which makes a smaller job count a *strict prefix* of a
    /// larger one (the generator is a single sequential stream) — useful
    /// for debugging, misleading for scale ladders, where every row would
    /// share its early critical path. Benchmarks sweeping `jobs` set this
    /// per row to decorrelate the samples.
    pub gen_seed: Option<u64>,
    /// Fault profile injected into the run ([`FaultPlan::none`] for the
    /// paper's fault-free experiments).
    pub faults: FaultPlan,
    /// Federation layout ([`FederationConfig::off`] for the centralized
    /// engine; `K = 1` with zero staleness is digest-identical to it).
    pub federation: FederationConfig,
    /// Write a JSONL event trace of the run to this path (`--trace-out`).
    /// Tracing is observational only: the run's digest is unchanged.
    pub trace_out: Option<std::path::PathBuf>,
    /// Profile engine hot paths, returning the wall-clock table in
    /// [`SimResult::profile`] (`--profile`).
    pub profile_hot_paths: bool,
    /// Run under the invariant auditor, returning the report in
    /// [`SimResult::audit`] (`--audit`; also forced by the `PHOENIX_AUDIT`
    /// environment variable). Observational only: the digest is unchanged.
    pub audit: bool,
}

impl RunSpec {
    /// A spec running `scheduler` on `profile` at the profile-default
    /// cluster scale.
    pub fn new(profile: TraceProfile, scheduler: SchedulerKind) -> Self {
        let nodes = profile.default_nodes;
        RunSpec {
            profile,
            scheduler,
            nodes,
            jobs: 10_000,
            gen_nodes: nodes,
            gen_util: 0.9,
            seed: 1,
            gen_seed: None,
            faults: FaultPlan::none(),
            federation: FederationConfig::off(),
            trace_out: None,
            profile_hot_paths: false,
            audit: false,
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy running on a different cluster size (workload
    /// unchanged).
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Returns a copy with a different fault profile.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Returns a copy with a different federation layout.
    pub fn with_federation(mut self, federation: FederationConfig) -> Self {
        self.federation = federation;
        self
    }

    /// Returns a copy writing a JSONL event trace to `path`.
    pub fn with_trace_out(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.trace_out = Some(path.into());
        self
    }

    /// Returns a copy with hot-path profiling enabled.
    pub fn with_profiling(mut self) -> Self {
        self.profile_hot_paths = true;
        self
    }

    /// Returns a copy running under the invariant auditor.
    pub fn with_audit(mut self) -> Self {
        self.audit = true;
        self
    }
}

/// Wall-clock breakdown of one [`run_spec_timed`] execution, in seconds.
///
/// Generation and simulation are timed separately so the scale benchmark
/// (`--bin scale`) can attribute end-to-end cost; none of this feeds the
/// simulation itself, which stays deterministic in the seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunTiming {
    /// Generating the machine population.
    pub cluster_gen_s: f64,
    /// Generating the job trace.
    pub trace_gen_s: f64,
    /// Building the posting-list feasibility index over the cluster.
    pub index_build_s: f64,
    /// Executing the simulation.
    pub sim_s: f64,
}

impl RunTiming {
    /// End-to-end seconds (generation + index build + simulation).
    pub fn total_s(&self) -> f64 {
        self.cluster_gen_s + self.trace_gen_s + self.index_build_s + self.sim_s
    }
}

/// Executes one run: generates the cluster and trace, simulates, returns
/// the result.
pub fn run_spec(spec: &RunSpec) -> SimResult {
    run_spec_timed(spec).0
}

/// [`run_spec`] with a wall-clock breakdown of the phases.
pub fn run_spec_timed(spec: &RunSpec) -> (SimResult, RunTiming) {
    let mut timing = RunTiming::default();
    let mut rng = StdRng::seed_from_u64(spec.seed.wrapping_mul(0x9E37_79B9).wrapping_add(17));
    let started = std::time::Instant::now();
    let cluster =
        MachinePopulation::generate(spec.profile.population.clone(), spec.nodes, &mut rng);
    timing.cluster_gen_s = started.elapsed().as_secs_f64();
    let started = std::time::Instant::now();
    let trace = TraceGenerator::new(spec.profile.clone(), spec.gen_seed.unwrap_or(spec.seed))
        .generate(spec.jobs, spec.gen_nodes, spec.gen_util);
    timing.trace_gen_s = started.elapsed().as_secs_f64();
    let cutoff = spec.profile.short_cutoff_s();
    let config = SimConfig {
        record_task_waits: false,
        faults: spec.faults,
        federation: spec.federation,
        ..SimConfig::default()
    };
    let started = std::time::Instant::now();
    let index = FeasibilityIndex::new(cluster.into_machines());
    timing.index_build_s = started.elapsed().as_secs_f64();
    let mut sim = Simulation::new(
        config,
        index,
        &trace,
        spec.scheduler.build(cutoff),
        spec.seed,
    );
    if let Some(path) = &spec.trace_out {
        let sink = JsonlSink::create(path)
            .unwrap_or_else(|e| panic!("cannot create trace output {}: {e}", path.display()));
        sim.set_trace_sink(Box::new(sink));
    }
    if spec.profile_hot_paths {
        sim.enable_profiling();
    }
    // Audit goes last: it tees whatever trace sink is attached by now.
    if spec.audit || std::env::var_os("PHOENIX_AUDIT").is_some() {
        sim.enable_audit();
    }
    let started = std::time::Instant::now();
    let result = sim.run();
    timing.sim_s = started.elapsed().as_secs_f64();
    (result, timing)
}

/// Executes a batch of runs across `threads` worker threads (a scoped
/// work-stealing pool over an atomic cursor), preserving input order in
/// the output and returning the per-run wall-clock breakdowns.
///
/// Every run is fully deterministic in its spec, so results — digests
/// included — are byte-identical whatever the thread count or
/// interleaving; only the wall-clock timings vary. `threads` is clamped to
/// `[1, specs.len()]`; one thread degenerates to a plain sequential loop
/// with no pool overhead.
pub fn run_specs_parallel(specs: &[RunSpec], threads: usize) -> Vec<(SimResult, RunTiming)> {
    let threads = threads.clamp(1, specs.len().max(1));
    if threads == 1 {
        return specs.iter().map(run_spec_timed).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<std::sync::Mutex<Option<(SimResult, RunTiming)>>> =
        specs.iter().map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= specs.len() {
                    return;
                }
                let result = run_spec_timed(&specs[i]);
                *results[i].lock().expect("no poisoned locks") = Some(result);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no poisoned locks")
                .expect("every slot filled")
        })
        .collect()
}

/// Builds the full cross product of scenarios — every profile × scheduler
/// × seed — applying `configure` to each spec (set `jobs`, `nodes`,
/// faults, ... there). Feed the result to [`run_specs_parallel`]; output
/// order is profiles-major, then schedulers, then seeds.
pub fn scenario_matrix(
    profiles: &[TraceProfile],
    schedulers: &[SchedulerKind],
    seeds: &[u64],
    mut configure: impl FnMut(&mut RunSpec),
) -> Vec<RunSpec> {
    let mut specs = Vec::with_capacity(profiles.len() * schedulers.len() * seeds.len());
    for profile in profiles {
        for &scheduler in schedulers {
            for &seed in seeds {
                let mut spec = RunSpec::new(profile.clone(), scheduler).with_seed(seed);
                configure(&mut spec);
                specs.push(spec);
            }
        }
    }
    specs
}

/// Executes a batch of runs in parallel (bounded by available CPU cores),
/// preserving input order in the output.
pub fn run_many(specs: &[RunSpec]) -> Vec<SimResult> {
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    run_specs_parallel(specs, parallelism)
        .into_iter()
        .map(|(result, _)| result)
        .collect()
}

/// Executes `spec` once per seed, in parallel, preserving seed order.
///
/// This is the multi-seed confidence-interval path used by the headline
/// tables: each run is fully deterministic in its seed, so the batch is
/// reproducible regardless of thread interleaving.
pub fn run_seeds(spec: &RunSpec, seeds: &[u64]) -> Vec<SimResult> {
    let specs: Vec<RunSpec> = seeds.iter().map(|&s| spec.clone().with_seed(s)).collect();
    run_many(&specs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(kind: SchedulerKind) -> RunSpec {
        let mut spec = RunSpec::new(TraceProfile::yahoo(), kind);
        spec.nodes = 60;
        spec.gen_nodes = 60;
        spec.jobs = 150;
        spec.gen_util = 0.6;
        spec
    }

    #[test]
    fn every_scheduler_kind_runs() {
        for kind in [
            SchedulerKind::Phoenix,
            SchedulerKind::EagleC,
            SchedulerKind::HawkC,
            SchedulerKind::SparrowC,
            SchedulerKind::YaqD,
            SchedulerKind::MercuryC,
            SchedulerKind::MonolithicC,
            SchedulerKind::ChoosyC,
            SchedulerKind::PhoenixNoCrv,
            SchedulerKind::PhoenixNoAdmission,
        ] {
            let result = run_spec(&tiny_spec(kind));
            assert_eq!(result.incomplete_jobs, 0, "{}", kind.name());
            // Ablation kinds run the base policy (which reports its own
            // name); plain kinds match exactly.
            assert!(
                kind.name().starts_with(&result.scheduler),
                "{} vs {}",
                kind.name(),
                result.scheduler
            );
        }
    }

    #[test]
    fn parallel_matrix_matches_sequential_digests() {
        // A seeds × schedulers matrix run on several threads must produce
        // byte-identical digests, in the same order, as one thread.
        let specs = scenario_matrix(
            &[TraceProfile::yahoo()],
            &[SchedulerKind::Phoenix, SchedulerKind::EagleC],
            &[2, 7],
            |spec| {
                spec.nodes = 60;
                spec.gen_nodes = 60;
                spec.jobs = 150;
                spec.gen_util = 0.6;
            },
        );
        assert_eq!(specs.len(), 4);
        let sequential = run_specs_parallel(&specs, 1);
        let parallel = run_specs_parallel(&specs, 3);
        assert_eq!(sequential.len(), parallel.len());
        for ((a, _), (b, _)) in sequential.iter().zip(parallel.iter()) {
            assert_eq!(a.digest(), b.digest(), "thread count must not leak in");
        }
    }

    #[test]
    fn run_seeds_matches_sequential_per_seed_runs() {
        let spec = tiny_spec(SchedulerKind::Phoenix);
        let seeds = [2u64, 7, 11];
        let batch = run_seeds(&spec, &seeds);
        assert_eq!(batch.len(), seeds.len());
        for (&seed, got) in seeds.iter().zip(&batch) {
            let sequential = run_spec(&spec.clone().with_seed(seed));
            assert_eq!(sequential.counters, got.counters, "seed {seed}");
            assert_eq!(
                sequential.metrics.makespan, got.metrics.makespan,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn run_many_matches_sequential_runs() {
        let specs: Vec<RunSpec> = (0..4)
            .map(|s| tiny_spec(SchedulerKind::EagleC).with_seed(s))
            .collect();
        let parallel = run_many(&specs);
        for (spec, got) in specs.iter().zip(&parallel) {
            let sequential = run_spec(spec);
            assert_eq!(sequential.counters, got.counters, "seed {}", spec.seed);
        }
    }
}
