//! Constraint system for the Phoenix scheduler reproduction.
//!
//! Phoenix (ICDCS 2017) schedules tasks that carry *placement constraints*:
//! requirements on the heterogeneous attributes of the worker machines that
//! may run them (instruction-set architecture, core count, disk count,
//! kernel version, clock speed, network speed, ...). This crate provides the
//! vocabulary shared by every other crate in the workspace:
//!
//! * [`attr`] — machine attributes ([`AttributeVector`]) and the categorical
//!   value types ([`Isa`], [`PlatformFamily`]).
//! * [`constraint`] — task-side requirements: [`Constraint`],
//!   [`ConstraintKind`], [`ConstraintClass`] (hard vs. soft) and
//!   [`ConstraintSet`].
//! * [`crv`] — the paper's Constraint Resource Vector: the six-dimensional
//!   demand/supply ratio vector `<cpu, mem, disk, os, clock, net>`
//!   ([`Crv`], [`CrvDimension`]).
//! * [`expr`] — compositional constraint expressions: `All`/`Any`/`Not`
//!   trees and multi-dimensional [`VectorDemand`] packing leaves
//!   ([`ConstraintExpr`]), compiled to bitset plans by the matcher.
//! * [`matching`] — feasibility checks between machines and constraint sets.
//! * [`model`] — the Google-trace constraint distribution (Table II and
//!   Fig. 6 of the paper) and the synthesizer that embeds representative
//!   constraints into arbitrary workloads (used for the Yahoo and Cloudera
//!   traces, exactly as the paper does).
//! * [`supply`] — generation of heterogeneous machine populations whose
//!   attribute mix matches the supply-side distribution of Fig. 6.
//!
//! # Example
//!
//! ```
//! use phoenix_constraints::{
//!     AttributeVector, Constraint, ConstraintKind, ConstraintOp, ConstraintSet, Isa,
//! };
//!
//! let machine = AttributeVector::builder()
//!     .isa(Isa::X86)
//!     .num_cores(16)
//!     .cpu_clock_mhz(2600)
//!     .build();
//!
//! let wants = ConstraintSet::from_constraints(vec![
//!     Constraint::hard(ConstraintKind::Architecture, ConstraintOp::Eq, Isa::X86 as u64),
//!     Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Gt, 8),
//! ]);
//!
//! assert!(wants.satisfied_by(&machine));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod constraint;
pub mod crv;
pub mod expr;
pub mod matching;
pub mod model;
pub mod supply;

pub use attr::{AttributeVector, AttributeVectorBuilder, Isa, PlatformFamily};
pub use constraint::{
    Constraint, ConstraintClass, ConstraintKind, ConstraintOp, ConstraintSet, PlacementConstraint,
};
pub use crv::{Crv, CrvDimension, CrvTable};
pub use expr::{ConstraintExpr, VectorDemand};
pub use matching::{count_ones_in_range, feasible_fraction, FeasibilityIndex};
pub use model::{
    supply_curve, table_ii_row, ConstraintModel, ConstraintStats, KindProfile,
    CONSTRAINT_COUNT_DISTRIBUTION, TABLE_II,
};
pub use supply::{weighted_pick, MachinePopulation, PopulationProfile, Weighted};
