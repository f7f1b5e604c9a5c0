//! Experiment harness for the Phoenix reproduction.
//!
//! One runnable binary per paper table/figure (see `src/bin/`), built on a
//! small library:
//!
//! * [`SchedulerKind`] — which policy to instantiate.
//! * [`RunSpec`] / [`run_spec`] — one deterministic simulation run
//!   (cluster generation + trace generation + simulation).
//! * [`run_many`] / [`run_seeds`] — parallel execution of a batch of runs
//!   across CPU cores (each run is single-threaded and deterministic;
//!   `run_seeds` is the multi-seed path behind seed-averaged tables).
//! * [`Scale`] — quick/full experiment scaling; the paper's absolute node
//!   counts (5,000–19,000) are reachable with `--scale full`, while the
//!   default `quick` scale divides cluster and workload by the same factor
//!   so utilization — the variable that drives every result — is preserved.
//! * [`Summary`] — seed-averaged percentile summaries (the paper averages
//!   five runs per data point).
//!
//! Run e.g. `cargo run --release -p phoenix-bench --bin fig7 -- --scale quick`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod report;
pub mod runner;
pub mod summary;

pub use args::{ObserveArgs, RowFilter, Scale};
pub use report::{print_normalized_sweep, sweep, SweepPoint, SWEEP_FACTORS};
pub use runner::{
    run_many, run_seeds, run_spec, run_spec_timed, run_specs_parallel, scenario_matrix, RunSpec,
    RunTiming, SchedulerKind,
};
pub use summary::{average_summaries, summarize, PercentileTriple, Summary};
