//! Phoenix: a constraint-aware hybrid scheduler for heterogeneous
//! datacenters (ICDCS 2017) — the paper's primary contribution.
//!
//! Phoenix is built on top of Eagle's hybrid design (centralized placement
//! for long jobs, distributed probes with late binding for short jobs,
//! Succinct State Sharing, Sticky Batch Probing, work stealing). The
//! [`Phoenix`] scheduler holds a `phoenix_schedulers::EagleC` and delegates
//! that machinery to it, then adds three constraint-aware mechanisms:
//!
//! * **The CRV monitor** ([`monitor::CrvMonitor`]) — every heartbeat
//!   (9 s, §VI-C) it recomputes, for every constraint kind, the ratio of
//!   *demand* (queued constrained tasks asking for the resource) to
//!   *supply* (idle workers able to provide it), aggregated into the
//!   six-dimensional Constraint Resource Vector
//!   `<cpu, mem, disk, os, clock, net>`.
//! * **The M/G/1 waiting-time estimator** ([`estimator::WaitEstimator`]) —
//!   a Pollaczek–Khinchine estimate of each worker queue's expected wait
//!   `E[W] = ρ/(1−ρ) · E[S²]/(2E[S])` from observed probe inter-arrival
//!   times and service times (Equation 1 of the paper).
//! * **CRV-based queue reordering** ([`reorder`]) — when some constraint
//!   kind's demand/supply ratio exceeds `CRV_threshold` *and* a worker's
//!   `E[W]` exceeds `Qwait_threshold`, the worker's queue is reordered so
//!   that tasks demanding the most-contended dimension run first, bounded
//!   by the starvation slack (Algorithm 1). Otherwise Phoenix keeps Eagle's
//!   SRPT ordering.
//!
//! A **proactive admission controller** ([`admission`]) negotiates away
//!   soft constraints — most-contended first — when a job's full constraint
//!   set has no feasible worker.
//!
//! # Example
//!
//! ```
//! use phoenix_core::{Phoenix, PhoenixConfig};
//! use phoenix_constraints::{FeasibilityIndex, MachinePopulation};
//! use phoenix_sim::{SimConfig, Simulation};
//! use phoenix_traces::{TraceGenerator, TraceProfile};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let profile = TraceProfile::google();
//! let cutoff = profile.short_cutoff_s();
//! let mut rng = StdRng::seed_from_u64(1);
//! let cluster = MachinePopulation::generate(profile.population.clone(), 100, &mut rng);
//! let trace = TraceGenerator::new(profile, 1).generate(200, 100, 0.6);
//! let result = Simulation::new(
//!     SimConfig::default(),
//!     FeasibilityIndex::new(cluster.into_machines()),
//!     &trace,
//!     Box::new(Phoenix::new(PhoenixConfig::with_cutoff_s(cutoff))),
//!     1,
//! )
//! .run();
//! assert_eq!(result.incomplete_jobs, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod config;
pub mod estimator;
pub mod monitor;
pub mod reorder;
pub mod scheduler;

pub use admission::{negotiate_targets, Negotiation};
pub use config::PhoenixConfig;
pub use estimator::WaitEstimator;
pub use monitor::CrvMonitor;
pub use reorder::{crv_insert_tail, crv_reorder_queue};
pub use scheduler::Phoenix;
