//! Baseline datacenter schedulers for the Phoenix reproduction.
//!
//! Phoenix's evaluation compares against constraint-extended versions of
//! three published schedulers plus Yaq-d (Fig. 2, Figs. 7–11):
//!
//! * [`SparrowC`] — Sparrow (SOSP'13): fully distributed batch sampling with
//!   late binding; FIFO worker queues; constraints handled "trivially" by
//!   sampling only among feasible workers.
//! * [`HawkC`] — Hawk (ATC'15): hybrid — centralized least-loaded placement
//!   for long jobs outside a reserved short-job partition, distributed
//!   probes for short jobs, plus random work stealing by idle workers.
//! * [`EagleC`] — Eagle (SoCC'16): Hawk plus Succinct State Sharing (short
//!   probes avoid workers occupied by long jobs), Sticky Batch Probing, and
//!   SRPT queue reordering with a starvation bound. `phoenix-core`'s
//!   Phoenix holds one and delegates its hybrid machinery to it.
//! * [`YaqD`] — Yaq-d (EuroSys'16): distributed *early binding* into
//!   bounded-length worker queues with SRPT reordering.
//!
//! The building blocks (shared with `phoenix-core`):
//!
//! * [`config::BaselineConfig`] — probe ratio, short/long cutoff and slack
//!   threshold (the partition, stealing and queue-bound sizes are
//!   constants beside their one use).
//! * [`placement`] — constraint-aware target selection with the fallback
//!   ladder the paper calls "trivial" handling.
//! * [`central::place_long_job`] — the one least-estimated-work placement
//!   function for the centralized (long job) side of the hybrids and for
//!   Monolithic-C.
//! * [`srpt`] — SRPT insertion with per-probe starvation (bypass) bounds.
//! * [`sss::LongBusyMap`] — Eagle's shared bit vector of long-occupied
//!   workers.
//! * [`stealing`] — Hawk's constraint-aware random work stealing, entered
//!   through [`stealing::steal_if_idle`] by Hawk-C and Eagle-C.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod central;
pub mod choosy;
pub mod config;
pub mod eagle;
pub mod hawk;
pub mod mercury;
pub mod monolithic;
pub mod placement;
pub mod sparrow;
pub mod srpt;
pub mod sss;
pub mod stealing;
pub mod yaqd;

pub use central::place_long_job;
pub use choosy::ChoosyC;
pub use config::BaselineConfig;
pub use eagle::EagleC;
pub use hawk::HawkC;
pub use mercury::MercuryC;
pub use monolithic::MonolithicC;
pub use placement::{
    apply_placement_preference, choose_targets, estimated_queue_work_us, Placement,
};
pub use sparrow::SparrowC;
pub use sss::LongBusyMap;
pub use yaqd::YaqD;
