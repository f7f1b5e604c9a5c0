//! The Constraint Resource Vector (CRV).
//!
//! The paper defines the CRV of a node as a vector over the resource
//! dimensions `<cpu, mem, disk, os, clock, net_bandwidth>` and drives
//! Phoenix's queue reordering from the *demand/supply ratio* of each
//! dimension: demand is the number of queued tasks asking for a constrained
//! resource, supply is the amount of that resource currently available.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::constraint::{ConstraintKind, ConstraintSet};

/// One of the six CRV dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CrvDimension {
    /// CPU-side constraints: ISA, core count, gang size.
    Cpu,
    /// Memory constraints.
    Mem,
    /// Disk-count constraints.
    Disk,
    /// OS constraints: kernel version, platform family.
    Os,
    /// CPU clock-speed constraints.
    Clock,
    /// Network-bandwidth constraints.
    Net,
}

impl CrvDimension {
    /// All dimensions in paper order.
    pub const ALL: [CrvDimension; 6] = [
        CrvDimension::Cpu,
        CrvDimension::Mem,
        CrvDimension::Disk,
        CrvDimension::Os,
        CrvDimension::Clock,
        CrvDimension::Net,
    ];

    /// Number of dimensions.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index in [`Self::ALL`] order.
    pub fn index(self) -> usize {
        match self {
            CrvDimension::Cpu => 0,
            CrvDimension::Mem => 1,
            CrvDimension::Disk => 2,
            CrvDimension::Os => 3,
            CrvDimension::Clock => 4,
            CrvDimension::Net => 5,
        }
    }
}

impl fmt::Display for CrvDimension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CrvDimension::Cpu => "cpu",
            CrvDimension::Mem => "mem",
            CrvDimension::Disk => "disk",
            CrvDimension::Os => "os",
            CrvDimension::Clock => "clock",
            CrvDimension::Net => "net",
        })
    }
}

/// A vector of per-dimension values: `<cpu, mem, disk, os, clock, net>`.
///
/// Used both for demand/supply ratios (the "CRV ratio" of the paper) and for
/// per-task demand indicators.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Crv {
    values: [f64; CrvDimension::COUNT],
}

impl Crv {
    /// The all-zero vector.
    pub fn zero() -> Self {
        Self::default()
    }

    /// The per-dimension demand indicator of a constraint set: 1.0 in every
    /// dimension the set constrains, 0.0 elsewhere.
    pub fn demand_of(set: &ConstraintSet) -> Self {
        let mut crv = Crv::zero();
        for c in set.iter() {
            crv[c.kind.crv_dimension()] = 1.0;
        }
        crv
    }

    /// The raw values in dimension order.
    pub fn values(&self) -> [f64; CrvDimension::COUNT] {
        self.values
    }

    /// The maximum entry and its dimension; ties break toward the earlier
    /// dimension. Returns `(Cpu, 0.0)` for the zero vector.
    pub fn max_dimension(&self) -> (CrvDimension, f64) {
        let mut best = (CrvDimension::Cpu, self.values[0]);
        for dim in CrvDimension::ALL {
            let v = self[dim];
            if v > best.1 {
                best = (dim, v);
            }
        }
        best
    }

    /// The maximum entry restricted to the dimensions a constraint set
    /// demands; `None` for unconstrained sets.
    pub fn max_over_demand(&self, set: &ConstraintSet) -> Option<(CrvDimension, f64)> {
        let mut best: Option<(CrvDimension, f64)> = None;
        for c in set.iter() {
            let dim = c.kind.crv_dimension();
            let v = self[dim];
            match best {
                Some((_, bv)) if bv >= v => {}
                _ => best = Some((dim, v)),
            }
        }
        best
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Crv) -> Crv {
        let mut out = *self;
        for dim in CrvDimension::ALL {
            out[dim] += other[dim];
        }
        out
    }

    /// Scales every entry by `factor`.
    pub fn scale(&self, factor: f64) -> Crv {
        let mut out = *self;
        for v in out.values.iter_mut() {
            *v *= factor;
        }
        out
    }
}

impl Index<CrvDimension> for Crv {
    type Output = f64;

    fn index(&self, dim: CrvDimension) -> &f64 {
        &self.values[dim.index()]
    }
}

impl IndexMut<CrvDimension> for Crv {
    fn index_mut(&mut self, dim: CrvDimension) -> &mut f64 {
        &mut self.values[dim.index()]
    }
}

impl fmt::Display for Crv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("<")?;
        for (i, dim) in CrvDimension::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}={:.3}", dim, self[*dim])?;
        }
        f.write_str(">")
    }
}

/// The `CRV_Lookup_Table` of the paper: per-constraint-kind demand and
/// supply counters from which per-dimension ratios are derived.
///
/// Demand is accumulated per heartbeat from the constrained tasks that
/// arrived (or are queued); supply is the number of workers able to satisfy
/// constraints of that kind (or free slots on them).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrvTable {
    demand: [f64; ConstraintKind::COUNT],
    supply: [f64; ConstraintKind::COUNT],
}

impl CrvTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the demand side (typically at each heartbeat).
    pub fn reset_demand(&mut self) {
        self.demand = [0.0; ConstraintKind::COUNT];
    }

    /// Records `count` units of demand for a kind.
    pub fn add_demand(&mut self, kind: ConstraintKind, count: f64) {
        self.demand[kind.index()] += count;
    }

    /// Records the demand of every constraint in a set.
    pub fn add_demand_set(&mut self, set: &ConstraintSet) {
        for c in set.iter() {
            self.add_demand(c.kind, 1.0);
        }
    }

    /// Overwrites the supply for a kind.
    pub fn set_supply(&mut self, kind: ConstraintKind, supply: f64) {
        self.supply[kind.index()] = supply;
    }

    /// Demand recorded for a kind.
    pub fn demand(&self, kind: ConstraintKind) -> f64 {
        self.demand[kind.index()]
    }

    /// Supply recorded for a kind.
    pub fn supply(&self, kind: ConstraintKind) -> f64 {
        self.supply[kind.index()]
    }

    /// Demand/supply ratio for a kind. A kind with zero supply but positive
    /// demand is infinitely contended; we saturate to `f64::INFINITY`.
    /// Zero demand yields 0.0 regardless of supply.
    pub fn ratio(&self, kind: ConstraintKind) -> f64 {
        let d = self.demand(kind);
        if d == 0.0 {
            0.0
        } else if self.supply(kind) <= 0.0 {
            f64::INFINITY
        } else {
            d / self.supply(kind)
        }
    }

    /// Aggregates per-kind ratios into the six-dimensional CRV, taking the
    /// maximum ratio of the kinds mapped to each dimension.
    pub fn to_crv(&self) -> Crv {
        let mut crv = Crv::zero();
        for kind in ConstraintKind::ALL {
            let dim = kind.crv_dimension();
            let r = self.ratio(kind);
            if r > crv[dim] {
                crv[dim] = r;
            }
        }
        crv
    }

    /// The most contended kind and its ratio (`Max_CRV` in Algorithm 1).
    pub fn max_ratio(&self) -> (ConstraintKind, f64) {
        let mut best = (ConstraintKind::ALL[0], self.ratio(ConstraintKind::ALL[0]));
        for kind in ConstraintKind::ALL {
            let r = self.ratio(kind);
            if r > best.1 {
                best = (kind, r);
            }
        }
        best
    }
}

impl fmt::Display for CrvTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:>12} {:>12} {:>10}",
            "kind", "demand", "supply", "ratio"
        )?;
        for kind in ConstraintKind::ALL {
            writeln!(
                f,
                "{:<12} {:>12.1} {:>12.1} {:>10.4}",
                kind.to_string(),
                self.demand(kind),
                self.supply(kind),
                self.ratio(kind)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{Constraint, ConstraintOp};

    #[test]
    fn dimension_index_is_dense() {
        for (i, dim) in CrvDimension::ALL.iter().enumerate() {
            assert_eq!(dim.index(), i);
        }
    }

    #[test]
    fn demand_of_marks_constrained_dimensions() {
        let set = ConstraintSet::from_constraints(vec![
            Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Gt, 8),
            Constraint::soft(ConstraintKind::EthernetSpeed, ConstraintOp::Gt, 900),
        ]);
        let crv = Crv::demand_of(&set);
        assert_eq!(crv[CrvDimension::Cpu], 1.0);
        assert_eq!(crv[CrvDimension::Net], 1.0);
        assert_eq!(crv[CrvDimension::Disk], 0.0);
    }

    #[test]
    fn max_dimension_prefers_largest_value() {
        let mut crv = Crv::zero();
        crv[CrvDimension::Disk] = 0.7;
        crv[CrvDimension::Net] = 0.9;
        assert_eq!(crv.max_dimension(), (CrvDimension::Net, 0.9));
    }

    #[test]
    fn max_dimension_of_zero_vector_is_cpu_zero() {
        assert_eq!(Crv::zero().max_dimension(), (CrvDimension::Cpu, 0.0));
    }

    #[test]
    fn max_over_demand_ignores_undemanded_dimensions() {
        let set = ConstraintSet::from_constraints(vec![Constraint::hard(
            ConstraintKind::KernelVersion,
            ConstraintOp::Gt,
            300,
        )]);
        let mut crv = Crv::zero();
        crv[CrvDimension::Cpu] = 5.0; // not demanded by the set
        crv[CrvDimension::Os] = 1.5;
        assert_eq!(crv.max_over_demand(&set), Some((CrvDimension::Os, 1.5)));
        assert_eq!(crv.max_over_demand(&ConstraintSet::unconstrained()), None);
    }

    #[test]
    fn table_ratio_handles_zero_supply_and_zero_demand() {
        let mut t = CrvTable::new();
        assert_eq!(t.ratio(ConstraintKind::NumCores), 0.0);
        t.add_demand(ConstraintKind::NumCores, 10.0);
        assert!(t.ratio(ConstraintKind::NumCores).is_infinite());
        t.set_supply(ConstraintKind::NumCores, 20.0);
        assert!((t.ratio(ConstraintKind::NumCores) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn table_to_crv_takes_max_kind_per_dimension() {
        let mut t = CrvTable::new();
        // Architecture and NumCores both map to Cpu.
        t.add_demand(ConstraintKind::Architecture, 10.0);
        t.set_supply(ConstraintKind::Architecture, 100.0);
        t.add_demand(ConstraintKind::NumCores, 50.0);
        t.set_supply(ConstraintKind::NumCores, 100.0);
        let crv = t.to_crv();
        assert!((crv[CrvDimension::Cpu] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn table_max_ratio_finds_hottest_kind() {
        let mut t = CrvTable::new();
        t.add_demand(ConstraintKind::EthernetSpeed, 30.0);
        t.set_supply(ConstraintKind::EthernetSpeed, 10.0);
        t.add_demand(ConstraintKind::NumCores, 5.0);
        t.set_supply(ConstraintKind::NumCores, 10.0);
        let (kind, ratio) = t.max_ratio();
        assert_eq!(kind, ConstraintKind::EthernetSpeed);
        assert!((ratio - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reset_demand_keeps_supply() {
        let mut t = CrvTable::new();
        t.add_demand(ConstraintKind::Memory, 4.0);
        t.set_supply(ConstraintKind::Memory, 8.0);
        t.reset_demand();
        assert_eq!(t.demand(ConstraintKind::Memory), 0.0);
        assert_eq!(t.supply(ConstraintKind::Memory), 8.0);
    }

    #[test]
    fn crv_arithmetic() {
        let mut a = Crv::zero();
        a[CrvDimension::Cpu] = 1.0;
        let mut b = Crv::zero();
        b[CrvDimension::Cpu] = 2.0;
        b[CrvDimension::Net] = 4.0;
        let sum = a.add(&b);
        assert_eq!(sum[CrvDimension::Cpu], 3.0);
        assert_eq!(sum[CrvDimension::Net], 4.0);
        let scaled = sum.scale(0.5);
        assert_eq!(scaled[CrvDimension::Cpu], 1.5);
    }

    #[test]
    fn displays_are_nonempty() {
        assert!(!Crv::zero().to_string().is_empty());
        assert!(!CrvTable::new().to_string().is_empty());
        assert_eq!(CrvDimension::Net.to_string(), "net");
    }
}

#[cfg(test)]
mod crv_property_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Table ratios equal demand/supply (with the documented edge
        /// cases), and `to_crv` never exceeds the hottest kind ratio.
        #[test]
        fn ratios_and_aggregation_are_consistent(
            demands in prop::collection::vec(0.0f64..1_000.0, ConstraintKind::COUNT),
            supplies in prop::collection::vec(0.0f64..1_000.0, ConstraintKind::COUNT),
        ) {
            let mut table = CrvTable::new();
            for (i, kind) in ConstraintKind::ALL.iter().enumerate() {
                table.add_demand(*kind, demands[i]);
                table.set_supply(*kind, supplies[i]);
            }
            let (_, max_ratio) = table.max_ratio();
            for (i, kind) in ConstraintKind::ALL.iter().enumerate() {
                let r = table.ratio(*kind);
                if demands[i] == 0.0 {
                    prop_assert_eq!(r, 0.0);
                } else if supplies[i] <= 0.0 {
                    prop_assert!(r.is_infinite());
                } else {
                    prop_assert!((r - demands[i] / supplies[i]).abs() < 1e-9);
                }
                prop_assert!(r <= max_ratio || max_ratio.is_infinite());
            }
            let crv = table.to_crv();
            let (_, crv_max) = crv.max_dimension();
            // The aggregated vector's max equals the hottest kind's ratio.
            if max_ratio.is_finite() {
                prop_assert!((crv_max - max_ratio).abs() < 1e-9);
            } else {
                prop_assert!(crv_max.is_infinite());
            }
        }
    }
}
