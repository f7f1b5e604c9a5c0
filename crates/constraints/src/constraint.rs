//! Task-side constraints: kinds, operators, hard/soft classes and sets.

use std::fmt;
use std::sync::Arc;

use crate::attr::{AttributeVector, Isa};
use crate::crv::CrvDimension;
use crate::expr::ConstraintExpr;

/// The constraint kinds observed in the Google cluster trace (Table II of
/// the paper), plus an explicit memory kind so that the paper's
/// six-dimensional CRV `<cpu, mem, disk, os, clock, net>` has a populated
/// memory dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ConstraintKind {
    /// Instruction-set architecture (`Architecture (ISA)` in Table II).
    Architecture,
    /// Gang size: number of co-resident nodes requested.
    NumNodes,
    /// NIC speed.
    EthernetSpeed,
    /// CPU core count.
    NumCores,
    /// Upper bound on attached disks (jobs that want dedicated small nodes).
    MaxDisks,
    /// OS kernel version.
    KernelVersion,
    /// Micro-architecture platform family.
    PlatformFamily,
    /// CPU base clock.
    CpuClockSpeed,
    /// Lower bound on attached disks.
    MinDisks,
    /// Minimum installed memory.
    Memory,
}

impl ConstraintKind {
    /// All kinds, in Table II order (memory appended).
    pub const ALL: [ConstraintKind; 10] = [
        ConstraintKind::Architecture,
        ConstraintKind::NumNodes,
        ConstraintKind::EthernetSpeed,
        ConstraintKind::NumCores,
        ConstraintKind::MaxDisks,
        ConstraintKind::KernelVersion,
        ConstraintKind::PlatformFamily,
        ConstraintKind::CpuClockSpeed,
        ConstraintKind::MinDisks,
        ConstraintKind::Memory,
    ];

    /// Number of distinct kinds.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index of this kind (stable, in [`Self::ALL`] order).
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&k| k == self)
            .expect("kind present in ALL")
    }

    /// The CRV dimension this kind contributes demand to, following the
    /// paper's `<cpu, mem, disk, os, clock, net_bandwidth>` grouping.
    pub fn crv_dimension(self) -> CrvDimension {
        match self {
            ConstraintKind::Architecture | ConstraintKind::NumCores | ConstraintKind::NumNodes => {
                CrvDimension::Cpu
            }
            ConstraintKind::Memory => CrvDimension::Mem,
            ConstraintKind::MaxDisks | ConstraintKind::MinDisks => CrvDimension::Disk,
            ConstraintKind::KernelVersion | ConstraintKind::PlatformFamily => CrvDimension::Os,
            ConstraintKind::CpuClockSpeed => CrvDimension::Clock,
            ConstraintKind::EthernetSpeed => CrvDimension::Net,
        }
    }

    /// Whether this kind is categorical (only `=` comparisons make sense).
    pub fn is_categorical(self) -> bool {
        matches!(
            self,
            ConstraintKind::Architecture | ConstraintKind::PlatformFamily
        )
    }

    /// Default hard/soft classification.
    ///
    /// The paper's examples: hard constraints are strict requirements
    /// (ISA, CPU count, minimum memory, kernel ABI); soft constraints can be
    /// negotiated with a performance trade-off (clock speed, network
    /// bandwidth). Disk-count caps and gang sizes are treated as soft.
    pub fn default_class(self) -> ConstraintClass {
        match self {
            ConstraintKind::Architecture
            | ConstraintKind::NumCores
            | ConstraintKind::KernelVersion
            | ConstraintKind::PlatformFamily
            | ConstraintKind::Memory
            | ConstraintKind::MinDisks => ConstraintClass::Hard,
            ConstraintKind::CpuClockSpeed
            | ConstraintKind::EthernetSpeed
            | ConstraintKind::MaxDisks
            | ConstraintKind::NumNodes => ConstraintClass::Soft,
        }
    }
}

impl ConstraintKind {
    /// Parses the short name produced by [`fmt::Display`]
    /// (e.g. `"arch"`, `"num_cores"`).
    pub fn from_name(name: &str) -> Option<ConstraintKind> {
        Self::ALL.iter().copied().find(|k| k.to_string() == name)
    }
}

impl fmt::Display for ConstraintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ConstraintKind::Architecture => "arch",
            ConstraintKind::NumNodes => "num_nodes",
            ConstraintKind::EthernetSpeed => "eth_speed",
            ConstraintKind::NumCores => "num_cores",
            ConstraintKind::MaxDisks => "max_disks",
            ConstraintKind::KernelVersion => "kernel",
            ConstraintKind::PlatformFamily => "platform",
            ConstraintKind::CpuClockSpeed => "cpu_clock",
            ConstraintKind::MinDisks => "min_disks",
            ConstraintKind::Memory => "memory",
        };
        f.write_str(name)
    }
}

/// Comparison operator attached to a constraint.
///
/// The Google trace accompanies every constraint with one of `<`, `>`, `=`
/// (§V-A of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintOp {
    /// Machine attribute must be strictly less than the value.
    Lt,
    /// Machine attribute must be strictly greater than the value.
    Gt,
    /// Machine attribute must equal the value.
    Eq,
}

impl ConstraintOp {
    /// Evaluates `attribute <op> value`.
    pub fn eval(self, attribute: u64, value: u64) -> bool {
        match self {
            ConstraintOp::Lt => attribute < value,
            ConstraintOp::Gt => attribute > value,
            ConstraintOp::Eq => attribute == value,
        }
    }
}

impl ConstraintOp {
    /// Parses the operator symbol (`"<"`, `">"`, `"="`).
    pub fn from_symbol(symbol: &str) -> Option<ConstraintOp> {
        match symbol {
            "<" => Some(ConstraintOp::Lt),
            ">" => Some(ConstraintOp::Gt),
            "=" => Some(ConstraintOp::Eq),
            _ => None,
        }
    }
}

impl fmt::Display for ConstraintOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ConstraintOp::Lt => "<",
            ConstraintOp::Gt => ">",
            ConstraintOp::Eq => "=",
        })
    }
}

/// Hard vs. soft classification (§III-A of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintClass {
    /// Strict requirement; the task cannot run where it is violated.
    Hard,
    /// Negotiable requirement; may be relaxed at a performance cost.
    Soft,
}

impl ConstraintClass {
    /// Parses the class name (`"hard"` / `"soft"`).
    pub fn from_name(name: &str) -> Option<ConstraintClass> {
        match name {
            "hard" => Some(ConstraintClass::Hard),
            "soft" => Some(ConstraintClass::Soft),
            _ => None,
        }
    }
}

impl fmt::Display for ConstraintClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ConstraintClass::Hard => "hard",
            ConstraintClass::Soft => "soft",
        })
    }
}

/// One task placement constraint: *attribute `op` value*, with a hard/soft
/// class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// Which machine attribute is constrained.
    pub kind: ConstraintKind,
    /// Comparison operator.
    pub op: ConstraintOp,
    /// Scalar comparison value. Categorical kinds store the enum
    /// discriminant (e.g. [`Isa`] as `u64`).
    pub value: u64,
    /// Hard or soft.
    pub class: ConstraintClass,
}

impl Constraint {
    /// Creates a constraint with an explicit class.
    pub fn new(kind: ConstraintKind, op: ConstraintOp, value: u64, class: ConstraintClass) -> Self {
        Constraint {
            kind,
            op,
            value,
            class,
        }
    }

    /// Creates a hard constraint.
    pub fn hard(kind: ConstraintKind, op: ConstraintOp, value: u64) -> Self {
        Self::new(kind, op, value, ConstraintClass::Hard)
    }

    /// Creates a soft constraint.
    pub fn soft(kind: ConstraintKind, op: ConstraintOp, value: u64) -> Self {
        Self::new(kind, op, value, ConstraintClass::Soft)
    }

    /// Creates a constraint with the kind's default class
    /// (see [`ConstraintKind::default_class`]).
    pub fn with_default_class(kind: ConstraintKind, op: ConstraintOp, value: u64) -> Self {
        Self::new(kind, op, value, kind.default_class())
    }

    /// Reads the constrained attribute out of a machine's attribute vector.
    pub fn machine_attribute(kind: ConstraintKind, machine: &AttributeVector) -> u64 {
        match kind {
            ConstraintKind::Architecture => machine.isa as u64,
            ConstraintKind::NumNodes => u64::from(machine.rack_size),
            ConstraintKind::EthernetSpeed => u64::from(machine.ethernet_mbps),
            ConstraintKind::NumCores => u64::from(machine.num_cores),
            ConstraintKind::MaxDisks | ConstraintKind::MinDisks => u64::from(machine.num_disks),
            ConstraintKind::KernelVersion => u64::from(machine.kernel_version),
            ConstraintKind::PlatformFamily => u64::from(machine.platform.0),
            ConstraintKind::CpuClockSpeed => u64::from(machine.cpu_clock_mhz),
            ConstraintKind::Memory => u64::from(machine.memory_gb),
        }
    }

    /// Whether `machine` satisfies this constraint.
    pub fn satisfied_by(&self, machine: &AttributeVector) -> bool {
        self.op
            .eval(Self::machine_attribute(self.kind, machine), self.value)
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.kind == ConstraintKind::Architecture {
            if let Some(isa) = Isa::from_u64(self.value) {
                return write!(f, "[{}] {} {} {}", self.class, self.kind, self.op, isa);
            }
        }
        write!(
            f,
            "[{}] {} {} {}",
            self.class, self.kind, self.op, self.value
        )
    }
}

/// Job-level placement (affinity) constraint (§III-A).
///
/// These are combinatorial preferences over *sets* of tasks rather than
/// per-machine attribute comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementConstraint {
    /// No placement preference.
    #[default]
    None,
    /// Tasks of the job prefer to land in the same rack (data locality).
    Colocate,
    /// Tasks of the job prefer distinct racks (fault tolerance).
    Spread,
}

impl PlacementConstraint {
    /// Parses the placement name (`"none"` / `"colocate"` / `"spread"`).
    pub fn from_name(name: &str) -> Option<PlacementConstraint> {
        match name {
            "none" => Some(PlacementConstraint::None),
            "colocate" => Some(PlacementConstraint::Colocate),
            "spread" => Some(PlacementConstraint::Spread),
            _ => None,
        }
    }
}

impl fmt::Display for PlacementConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PlacementConstraint::None => "none",
            PlacementConstraint::Colocate => "colocate",
            PlacementConstraint::Spread => "spread",
        })
    }
}

/// An immutable set of constraints carried by a task (or shared by all tasks
/// of a job).
///
/// The set is kept sorted by kind so that equality and hashing are
/// order-insensitive and so iteration order is deterministic.
///
/// # Compositional expressions
///
/// A set is usually a flat AND of constraints (the paper's model). It may
/// instead carry a compositional [`ConstraintExpr`] tree (affinity `Any`,
/// anti-affinity `Not`, vector packing) — see
/// [`ConstraintSet::from_expr`]. For such sets, `constraints` holds the
/// expression's conservative [`ConstraintExpr::projection`] so that every
/// flat-iteration consumer (CRV demand accounting, supply estimation,
/// constraint statistics) keeps working; satisfaction queries evaluate the
/// tree itself. Pure conjunctions are normalized to flat sets at
/// construction, so flat workloads never observe the expression path.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ConstraintSet {
    constraints: Vec<Constraint>,
    placement: PlacementConstraint,
    /// The compositional tree, if this set is not a pure conjunction.
    /// `Arc` keeps set cloning (pervasive in the simulator) cheap.
    expr: Option<Arc<ConstraintExpr>>,
}

impl ConstraintSet {
    /// The empty (unconstrained) set.
    pub fn unconstrained() -> Self {
        Self::default()
    }

    /// Builds a set from constraints; duplicates of the same kind are kept
    /// (a job may both lower- and upper-bound the same attribute).
    pub fn from_constraints(mut constraints: Vec<Constraint>) -> Self {
        constraints.sort_by_key(|c| (c.kind.index(), c.value));
        ConstraintSet {
            constraints,
            placement: PlacementConstraint::None,
            expr: None,
        }
    }

    /// Builds a set from a compositional expression.
    ///
    /// Pure conjunctions (any nesting of `All`, scalar leaves and vector
    /// demands — no `Any`/`Not`) are normalized to flat sets, so
    /// `from_expr(ConstraintExpr::all(v))` is byte-identical to
    /// [`ConstraintSet::from_constraints`]`(v)` everywhere (digests
    /// included). Genuinely compositional trees are retained and their
    /// [`ConstraintExpr::projection`] becomes the flat view seen by
    /// [`ConstraintSet::iter`].
    pub fn from_expr(expr: ConstraintExpr) -> Self {
        if let Some(flat) = expr.as_conjunction() {
            return Self::from_constraints(flat);
        }
        let mut projection = expr.projection();
        projection.sort_by_key(|c| (c.kind.index(), c.value));
        ConstraintSet {
            constraints: projection,
            placement: PlacementConstraint::None,
            expr: Some(Arc::new(expr)),
        }
    }

    /// The compositional expression, when this set carries one. Flat sets
    /// (including every set built by [`ConstraintSet::from_constraints`])
    /// return `None`.
    pub fn expr(&self) -> Option<&ConstraintExpr> {
        self.expr.as_deref()
    }

    /// Attaches a placement constraint.
    pub fn with_placement(mut self, placement: PlacementConstraint) -> Self {
        self.placement = placement;
        self
    }

    /// The placement constraint, if any.
    pub fn placement(&self) -> PlacementConstraint {
        self.placement
    }

    /// Whether the set is empty (and placement- and expression-free), i.e.
    /// the task is unconstrained.
    pub fn is_unconstrained(&self) -> bool {
        self.constraints.is_empty()
            && self.placement == PlacementConstraint::None
            && self.expr.is_none()
    }

    /// Number of attribute constraints in the set.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Whether there are zero attribute constraints.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Iterates over the attribute constraints in deterministic order.
    pub fn iter(&self) -> std::slice::Iter<'_, Constraint> {
        self.constraints.iter()
    }

    /// Whether `machine` satisfies the set: every constraint of a flat set,
    /// or the compositional expression when one is carried.
    pub fn satisfied_by(&self, machine: &AttributeVector) -> bool {
        match &self.expr {
            Some(expr) => expr.eval(machine),
            None => self.constraints.iter().all(|c| c.satisfied_by(machine)),
        }
    }

    /// Whether `machine` satisfies the *hard relaxation* of the set: every
    /// hard constraint of a flat set, or the expression with its soft
    /// literals relaxed (see [`ConstraintExpr::hard_eval`]).
    pub fn hard_satisfied_by(&self, machine: &AttributeVector) -> bool {
        match &self.expr {
            Some(expr) => expr.hard_eval(machine),
            None => self
                .constraints
                .iter()
                .filter(|c| c.class == ConstraintClass::Hard)
                .all(|c| c.satisfied_by(machine)),
        }
    }

    /// The constraints of the set violated by `machine`.
    pub fn violations<'a>(
        &'a self,
        machine: &'a AttributeVector,
    ) -> impl Iterator<Item = &'a Constraint> + 'a {
        self.constraints.iter().filter(|c| !c.satisfied_by(machine))
    }

    /// Returns a copy of the set with one soft constraint removed
    /// (by position among soft constraints), or `None` if there is no soft
    /// constraint to relax.
    ///
    /// Used by Phoenix's admission controller to negotiate resources.
    /// Expression sets return `None`: single-constraint removal is not
    /// meaningful on a tree — admission negotiates those per `Any` branch
    /// instead.
    pub fn relax_soft(&self, soft_index: usize) -> Option<ConstraintSet> {
        if self.expr.is_some() {
            return None;
        }
        let mut seen = 0usize;
        for (i, c) in self.constraints.iter().enumerate() {
            if c.class == ConstraintClass::Soft {
                if seen == soft_index {
                    let mut constraints = self.constraints.clone();
                    constraints.remove(i);
                    return Some(ConstraintSet {
                        constraints,
                        placement: self.placement,
                        expr: None,
                    });
                }
                seen += 1;
            }
        }
        None
    }

    /// Returns a copy of the set with the given soft constraint removed, or
    /// `None` if the exact constraint is not present as a soft constraint
    /// (always `None` for expression sets, as with
    /// [`ConstraintSet::relax_soft`]).
    pub fn relax_constraint(&self, target: &Constraint) -> Option<ConstraintSet> {
        if self.expr.is_some() || target.class != ConstraintClass::Soft {
            return None;
        }
        let i = self.constraints.iter().position(|c| c == target)?;
        let mut constraints = self.constraints.clone();
        constraints.remove(i);
        Some(ConstraintSet {
            constraints,
            placement: self.placement,
            expr: None,
        })
    }

    /// Returns the maximally relaxed set admission control may fall back
    /// to: the hard subset of a flat set, or the expression's
    /// [`ConstraintExpr::hard_relaxation`] (placement preserved).
    pub fn hard_only(&self) -> ConstraintSet {
        if let Some(expr) = &self.expr {
            return Self::from_expr(expr.hard_relaxation()).with_placement(self.placement);
        }
        ConstraintSet {
            constraints: self
                .constraints
                .iter()
                .filter(|c| c.class == ConstraintClass::Hard)
                .copied()
                .collect(),
            placement: self.placement,
            expr: None,
        }
    }

    /// Iterates over only the soft constraints.
    pub fn soft_constraints(&self) -> impl Iterator<Item = &Constraint> {
        self.constraints
            .iter()
            .filter(|c| c.class == ConstraintClass::Soft)
    }

    /// Iterates over only the hard constraints.
    pub fn hard_constraints(&self) -> impl Iterator<Item = &Constraint> {
        self.constraints
            .iter()
            .filter(|c| c.class == ConstraintClass::Hard)
    }
}

impl FromIterator<Constraint> for ConstraintSet {
    fn from_iter<T: IntoIterator<Item = Constraint>>(iter: T) -> Self {
        Self::from_constraints(iter.into_iter().collect())
    }
}

impl Extend<Constraint> for ConstraintSet {
    fn extend<T: IntoIterator<Item = Constraint>>(&mut self, iter: T) {
        if let Some(expr) = self.expr.take() {
            // Extending an expression set conjoins the new leaves with the
            // tree (and re-derives the projection) rather than corrupting
            // the flat view.
            let mut children = vec![ConstraintExpr::clone(&expr)];
            children.extend(iter.into_iter().map(ConstraintExpr::Leaf));
            *self = ConstraintSet::from_expr(ConstraintExpr::All(children))
                .with_placement(self.placement);
            return;
        }
        self.constraints.extend(iter);
        self.constraints.sort_by_key(|c| (c.kind.index(), c.value));
    }
}

impl<'a> IntoIterator for &'a ConstraintSet {
    type Item = &'a Constraint;
    type IntoIter = std::slice::Iter<'a, Constraint>;

    fn into_iter(self) -> Self::IntoIter {
        self.constraints.iter()
    }
}

impl fmt::Display for ConstraintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_unconstrained() {
            return f.write_str("{unconstrained}");
        }
        f.write_str("{")?;
        if let Some(expr) = &self.expr {
            write!(f, "{expr}")?;
            if self.placement != PlacementConstraint::None {
                write!(f, ", placement={}", self.placement)?;
            }
            return f.write_str("}");
        }
        for (i, c) in self.constraints.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{c}")?;
        }
        if self.placement != PlacementConstraint::None {
            if !self.constraints.is_empty() {
                f.write_str(", ")?;
            }
            write!(f, "placement={}", self.placement)?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttributeVector;

    fn machine() -> AttributeVector {
        AttributeVector::builder()
            .isa(Isa::X86)
            .num_cores(16)
            .num_disks(6)
            .cpu_clock_mhz(2600)
            .kernel_version(318)
            .build()
    }

    #[test]
    fn op_eval_covers_all_operators() {
        assert!(ConstraintOp::Lt.eval(1, 2));
        assert!(!ConstraintOp::Lt.eval(2, 2));
        assert!(ConstraintOp::Gt.eval(3, 2));
        assert!(!ConstraintOp::Gt.eval(2, 2));
        assert!(ConstraintOp::Eq.eval(2, 2));
        assert!(!ConstraintOp::Eq.eval(1, 2));
    }

    #[test]
    fn constraint_matches_machine_attributes() {
        let m = machine();
        assert!(Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Gt, 8).satisfied_by(&m));
        assert!(!Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Gt, 16).satisfied_by(&m));
        assert!(Constraint::hard(
            ConstraintKind::Architecture,
            ConstraintOp::Eq,
            Isa::X86 as u64
        )
        .satisfied_by(&m));
        assert!(Constraint::soft(ConstraintKind::MaxDisks, ConstraintOp::Lt, 8).satisfied_by(&m));
    }

    #[test]
    fn set_satisfaction_requires_all_constraints() {
        let set = ConstraintSet::from_constraints(vec![
            Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Gt, 8),
            Constraint::soft(ConstraintKind::CpuClockSpeed, ConstraintOp::Gt, 3_000),
        ]);
        let m = machine();
        assert!(!set.satisfied_by(&m), "clock constraint fails");
        assert!(set.hard_satisfied_by(&m), "hard subset passes");
    }

    #[test]
    fn relax_soft_removes_exactly_one_soft_constraint() {
        let set = ConstraintSet::from_constraints(vec![
            Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Gt, 8),
            Constraint::soft(ConstraintKind::CpuClockSpeed, ConstraintOp::Gt, 3_000),
            Constraint::soft(ConstraintKind::EthernetSpeed, ConstraintOp::Gt, 9_000),
        ]);
        let relaxed = set.relax_soft(0).expect("has soft constraints");
        assert_eq!(relaxed.len(), 2);
        assert_eq!(relaxed.soft_constraints().count(), 1);
        assert_eq!(relaxed.hard_constraints().count(), 1);
        assert!(set.relax_soft(2).is_none(), "only two soft constraints");
    }

    #[test]
    fn relax_constraint_requires_exact_soft_match() {
        let soft = Constraint::soft(ConstraintKind::CpuClockSpeed, ConstraintOp::Gt, 3_000);
        let hard = Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Gt, 8);
        let set = ConstraintSet::from_constraints(vec![hard, soft]);
        assert!(set.relax_constraint(&soft).is_some());
        assert!(set.relax_constraint(&hard).is_none(), "hard never relaxed");
        let missing = Constraint::soft(ConstraintKind::CpuClockSpeed, ConstraintOp::Gt, 9_999);
        assert!(set.relax_constraint(&missing).is_none());
    }

    #[test]
    fn hard_only_drops_exactly_the_soft_constraints() {
        let set = ConstraintSet::from_constraints(vec![
            Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Gt, 8),
            Constraint::soft(ConstraintKind::CpuClockSpeed, ConstraintOp::Gt, 3_000),
        ])
        .with_placement(PlacementConstraint::Spread);
        let hard = set.hard_only();
        assert_eq!(hard.len(), 1);
        assert_eq!(hard.soft_constraints().count(), 0);
        assert_eq!(hard.placement(), PlacementConstraint::Spread);
    }

    #[test]
    fn set_equality_is_order_insensitive() {
        let a = Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Gt, 8);
        let b = Constraint::soft(ConstraintKind::MaxDisks, ConstraintOp::Lt, 8);
        let s1 = ConstraintSet::from_constraints(vec![a, b]);
        let s2 = ConstraintSet::from_constraints(vec![b, a]);
        assert_eq!(s1, s2);
    }

    #[test]
    fn unconstrained_set_matches_everything() {
        let set = ConstraintSet::unconstrained();
        assert!(set.is_unconstrained());
        assert!(set.satisfied_by(&machine()));
    }

    #[test]
    fn placement_is_part_of_unconstrained_check() {
        let set = ConstraintSet::unconstrained().with_placement(PlacementConstraint::Spread);
        assert!(!set.is_unconstrained());
        assert!(set.is_empty(), "no attribute constraints though");
    }

    #[test]
    fn violations_reports_only_failed_constraints() {
        let set = ConstraintSet::from_constraints(vec![
            Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Gt, 8),
            Constraint::soft(ConstraintKind::CpuClockSpeed, ConstraintOp::Gt, 3_000),
        ]);
        let m = machine();
        let violated: Vec<_> = set.violations(&m).collect();
        assert_eq!(violated.len(), 1);
        assert_eq!(violated[0].kind, ConstraintKind::CpuClockSpeed);
    }

    #[test]
    fn every_kind_reads_some_machine_attribute() {
        let m = machine();
        for kind in ConstraintKind::ALL {
            // Evaluation must be total: no panic for any kind.
            let _ = Constraint::machine_attribute(kind, &m);
        }
    }

    #[test]
    fn names_round_trip_for_every_kind_op_class_placement() {
        for kind in ConstraintKind::ALL {
            assert_eq!(ConstraintKind::from_name(&kind.to_string()), Some(kind));
        }
        for op in [ConstraintOp::Lt, ConstraintOp::Gt, ConstraintOp::Eq] {
            assert_eq!(ConstraintOp::from_symbol(&op.to_string()), Some(op));
        }
        for class in [ConstraintClass::Hard, ConstraintClass::Soft] {
            assert_eq!(ConstraintClass::from_name(&class.to_string()), Some(class));
        }
        for placement in [
            PlacementConstraint::None,
            PlacementConstraint::Colocate,
            PlacementConstraint::Spread,
        ] {
            assert_eq!(
                PlacementConstraint::from_name(&placement.to_string()),
                Some(placement)
            );
        }
        assert_eq!(ConstraintKind::from_name("bogus"), None);
        assert_eq!(ConstraintOp::from_symbol("!"), None);
    }

    #[test]
    fn kind_index_is_dense_and_stable() {
        for (i, kind) in ConstraintKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn display_formats_mention_class_and_operator() {
        let c = Constraint::soft(ConstraintKind::CpuClockSpeed, ConstraintOp::Gt, 2_800);
        let s = c.to_string();
        assert!(s.contains("soft") && s.contains('>'), "{s}");
        let set = ConstraintSet::from_constraints(vec![c]);
        assert!(set.to_string().contains("cpu_clock"));
        assert_eq!(
            ConstraintSet::unconstrained().to_string(),
            "{unconstrained}"
        );
    }
}
