//! Trace-driven discrete-event cluster simulator for the Phoenix
//! reproduction.
//!
//! This crate rebuilds, in Rust, the simulation substrate the paper uses
//! (§V-A: the trace-driven simulator of Sparrow and Eagle): a cluster of
//! heterogeneous workers, each with **one execution slot and a queue** of
//! task *probes*, driven by a deterministic discrete-event engine. Messages
//! between schedulers and workers pay a configurable network delay (0.5 ms
//! by default, as in the paper).
//!
//! The scheduling policy itself is pluggable through the [`Scheduler`]
//! trait; the baseline schedulers (Sparrow-C, Hawk-C, Eagle-C, Yaq-d) live
//! in `phoenix-schedulers` and Phoenix itself in `phoenix-core`.
//!
//! Key modelling decisions (all mirrored from the Sparrow/Eagle simulators
//! and the paper's §IV–§V):
//!
//! * **Late binding**: schedulers place lightweight probes; a worker that
//!   pops a probe asks the job for a task, paying one network round trip.
//!   If the job has no unlaunched tasks left the probe is discarded for
//!   free (the "redundant probe" win of batch sampling).
//! * **Early binding**: centralized placement (long jobs in hybrid
//!   schedulers, all jobs in Yaq-d) enqueues *bound* probes that carry
//!   their task with them.
//! * **Queue reordering**: schedulers may reorder worker queues (SRPT, CRV)
//!   via [`SimCtx`]; per-probe bypass counters support starvation bounds.
//! * **Metrics**: per-job response and queuing times are recorded into
//!   short/long × constrained/unconstrained cells, plus the time series and
//!   counters the paper's figures need.
//!
//! # Example
//!
//! ```
//! use phoenix_sim::{RandomScheduler, SimConfig, Simulation};
//! use phoenix_traces::{TraceGenerator, TraceProfile};
//! use phoenix_constraints::{FeasibilityIndex, MachinePopulation};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let profile = TraceProfile::yahoo();
//! let mut rng = StdRng::seed_from_u64(1);
//! let cluster = MachinePopulation::generate(profile.population.clone(), 50, &mut rng);
//! let trace = TraceGenerator::new(profile, 1).generate(100, 50, 0.4);
//! let sim = Simulation::new(
//!     SimConfig::default(),
//!     FeasibilityIndex::new(cluster.into_machines()),
//!     &trace,
//!     Box::new(RandomScheduler::new(2)),
//!     7,
//! );
//! let result = sim.run();
//! // Every job either completed or was failed by admission control
//! // (hard-unsatisfiable constraint sets on a tiny 50-node cluster).
//! assert_eq!(result.counters.jobs_completed + result.counters.jobs_failed, 100);
//! assert_eq!(result.incomplete_jobs, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod config;
pub mod context;
pub mod crvledger;
pub mod engine;
pub mod event;
pub mod fault;
pub mod federation;
pub mod jobstate;
pub mod metrics;
pub mod probe;
pub mod profile;
pub mod random;
pub mod scheduler;
pub mod time;
pub mod trace;
pub mod worker;

pub use audit::{first_trace_divergence, AuditReport, InvariantAuditor, ReferenceExecutor};
pub use config::{FederationConfig, SimConfig};
pub use context::SimCtx;
pub use crvledger::{CrvLedger, CrvTally, QueueStats};
pub use engine::{SimState, Simulation};
pub use event::{Event, EventQueue, EventQueueStats};
pub use fault::FaultPlan;
pub use federation::{DomainSummary, FederationState, FederationStats};
pub use jobstate::{JobState, JobTable, JobTableStats};
pub use metrics::{Counters, JobOutcome, SimMetrics, SimResult};
pub use probe::{Probe, ProbeId};
pub use profile::{ProfileReport, ProfileScope, Profiler, ScopeTotals};
pub use random::RandomScheduler;
pub use scheduler::Scheduler;
pub use time::{SimDuration, SimTime};
pub use trace::{
    JsonlSink, KindCrv, MemorySink, MemoryTraceHandle, TraceRecord, TraceSink, Tracer, WorkerLoad,
};
pub use worker::{RunningTask, Worker, WorkerId};
