//! # Phoenix — a constraint-aware scheduler for heterogeneous datacenters
//!
//! A from-scratch Rust reproduction of *Phoenix: A Constraint-aware
//! Scheduler for Heterogeneous Datacenters* (Thinakaran et al., ICDCS
//! 2017), including every substrate the paper depends on:
//!
//! * a deterministic **trace-driven discrete-event cluster simulator**
//!   ([`sim`]) with heterogeneous workers, probe queues and late binding;
//! * the **constraint system** ([`constraints`]): machine attributes, task
//!   constraints, the Constraint Resource Vector (CRV), feasibility
//!   matching, and the Google-trace constraint synthesis model;
//! * **workload synthesis** ([`traces`]) for the Google, Cloudera and
//!   Yahoo cluster profiles with bursty arrivals and heavy-tailed task
//!   durations;
//! * the rebuilt **baseline schedulers** ([`schedulers`]): Sparrow-C,
//!   Hawk-C, Eagle-C and Yaq-d;
//! * **Phoenix itself** ([`core`]): the CRV monitor, the
//!   Pollaczek–Khinchine M/G/1 waiting-time estimator, CRV-based queue
//!   reordering, probe rescheduling and proactive admission control;
//! * the **experiment harness** ([`bench`](mod@bench)) regenerating every table and
//!   figure of the paper's evaluation.
//!
//! # Quickstart
//!
//! ```
//! use phoenix::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // A 100-worker heterogeneous cluster with the Google machine mix.
//! let profile = TraceProfile::google();
//! let mut rng = StdRng::seed_from_u64(42);
//! let cluster = MachinePopulation::generate(profile.population.clone(), 100, &mut rng);
//!
//! // A 200-job synthetic Google-like trace at moderate load.
//! let trace = TraceGenerator::new(profile.clone(), 42).generate(200, 100, 0.6);
//!
//! // Schedule it with Phoenix and inspect the result.
//! let result = Simulation::new(
//!     SimConfig::default(),
//!     FeasibilityIndex::new(cluster.into_machines()),
//!     &trace,
//!     Box::new(Phoenix::new(PhoenixConfig::with_cutoff_s(profile.short_cutoff_s()))),
//!     42,
//! )
//! .run();
//! assert_eq!(result.incomplete_jobs, 0);
//! println!("{result}");
//! ```
//!
//! See `examples/` for runnable scenarios and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction methodology and measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use phoenix_bench as bench;
pub use phoenix_constraints as constraints;
pub use phoenix_core as core;
pub use phoenix_metrics as metrics;
pub use phoenix_schedulers as schedulers;
pub use phoenix_sim as sim;
pub use phoenix_traces as traces;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use phoenix_bench::{run_many, run_spec, ObserveArgs, RunSpec, Scale, SchedulerKind};
    pub use phoenix_constraints::{
        AttributeVector, Constraint, ConstraintClass, ConstraintExpr, ConstraintKind,
        ConstraintModel, ConstraintOp, ConstraintSet, Crv, CrvDimension, FeasibilityIndex, Isa,
        MachinePopulation, PopulationProfile, VectorDemand,
    };
    pub use phoenix_core::{Phoenix, PhoenixConfig};
    pub use phoenix_metrics::{ConstraintStatus, Distribution, JobClass, LatencyKey};
    pub use phoenix_schedulers::{
        BaselineConfig, ChoosyC, EagleC, HawkC, MercuryC, MonolithicC, SparrowC, YaqD,
    };
    pub use phoenix_sim::{
        first_trace_divergence, AuditReport, FaultPlan, FederationConfig, FederationStats,
        JsonlSink, MemorySink, ProfileReport, ProfileScope, ReferenceExecutor, Scheduler,
        SimConfig, SimDuration, SimResult, Simulation, TraceRecord, TraceSink,
    };
    pub use phoenix_traces::{Job, JobId, Trace, TraceGenerator, TraceProfile, TraceStats};
}
