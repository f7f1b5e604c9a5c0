//! CRV demand/supply ledger: demand is counted as probes move, supply is
//! computed when it is read.
//!
//! Supply is read only at the CRV monitor's heartbeat refresh and at each
//! federated gossip round — a few hundred times per run — while probes move
//! on every enqueue, dispatch, steal and migration. So the ledger keeps only
//! what is cheap to keep exact on every move and derives the rest on read:
//!
//! * **Demand**: one unit per queued probe per constraint of its job's
//!   effective set, plus a refcount per distinct constraint instance. A
//!   probe demands the set its job's effective [`SetId`] names when it is
//!   enqueued; its removal subtracts the set the job names then, which is
//!   the same set: a job's effective set never changes once it has
//!   created a probe ([`crate::SimCtx::set_effective`]).
//! * **Idle bitset**: one bit per worker, set while the worker is idle and
//!   alive. Idle↔busy transitions flip one bit.
//! * **Supply** (on read): per kind, the idle workers satisfying at least
//!   one demanded instance of that kind — `popcount(idle ∧ ⋁ bits(i))` over
//!   the demanded instances `i` of the kind. Each instance's bitset comes
//!   from [`FeasibilityIndex::feasible_single`] once, when the instance is
//!   first seen.
//!
//! Counters live in a [`CrvTally`]: one for the whole cluster and, on a
//! partitioned federated run, one per domain. A domain tally counts only the
//! probes queued on its own workers, and its supply is the same popcount
//! restricted to its worker range over the instances *those* probes demand.
//! All tallies share the instance lists and the idle bitset.
//!
//! The ledger is hash-free per probe: sets arrive as [`SetId`]s from the
//! run's [`SetTable`], each set's instance ids live in a vector indexed by
//! the set id, and refcounts are plain vector slots addressed by instance
//! id. The one hash map, from constraint to instance id, is touched only
//! the first time a set is seen. Nothing is kept per probe, so the
//! ledger's memory follows the distinct sets and instances, not the
//! number of probes the run has sent.
//!
//! All probe movement between queues and all slot transitions must go
//! through the [`crate::SimState`] / [`crate::SimCtx`] wrappers that feed
//! this ledger; mutating [`crate::Worker`] queues directly desynchronizes
//! it (the monitor's debug oracle and the invariant auditor catch that).

use std::collections::HashMap;

use phoenix_constraints::{
    count_ones_in_range, Constraint, ConstraintKind, FeasibilityIndex, SetId, SetTable,
};

/// CRV demand counters over the shared idle bitset (see module docs).
#[derive(Debug, Clone, Default)]
pub struct CrvLedger {
    /// The whole cluster's counters.
    cluster: Tally,
    /// One tally per federated domain; empty unless the run is partitioned.
    domains: Vec<Tally>,
    /// Instance ids of each constrained set, by [`SetId`] index (empty
    /// until a probe demanding the set is first enqueued).
    set_instances: Vec<Box<[u32]>>,
    /// Interned distinct constraint instances, by instance id.
    instances: Vec<Constraint>,
    /// Feasible workers of each instance as a bitset (parallel to
    /// `instances`).
    instance_bits: Vec<Vec<u64>>,
    instance_ids: HashMap<Constraint, u32>,
    /// One bit per worker: set while the worker is idle and alive. Bits
    /// past the last worker are never read: every count masks to a range.
    idle: Vec<u64>,
    /// Most probes queued across the cluster at once.
    peak_queued: usize,
}

/// High-water mark of the run's worker queues. A memory measurement like
/// [`crate::EventQueueStats`], excluded from [`crate::SimResult::digest`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Most probes queued across the cluster at once.
    pub peak_queued: u64,
}

/// The counters of one scope: the cluster, or one domain's worker range.
#[derive(Debug, Clone, Default)]
struct Tally {
    /// First worker of the scope.
    start: usize,
    /// One past the last worker of the scope.
    end: usize,
    /// Per kind: queued (probe, constraint) pairs demanding it.
    demand: [u64; ConstraintKind::COUNT],
    /// Refcount per interned instance, by instance id (grown on demand).
    instance_refs: Vec<u64>,
    /// Instances with a nonzero refcount.
    demanded_instances: usize,
    queued_probes: usize,
    constrained_probes: usize,
}

impl Tally {
    fn over(start: usize, end: usize) -> Self {
        Tally {
            start,
            end,
            ..Tally::default()
        }
    }

    /// A probe entered a queue in this scope; `set` lists its instances
    /// (`None` for an unconstrained probe).
    fn probe_enqueued(&mut self, set: Option<&[u32]>, instances: &[Constraint]) {
        self.queued_probes += 1;
        let Some(set) = set else { return };
        self.constrained_probes += 1;
        for &inst in set {
            let inst = inst as usize;
            self.demand[instances[inst].kind.index()] += 1;
            if self.instance_refs.len() <= inst {
                self.instance_refs.resize(inst + 1, 0);
            }
            self.instance_refs[inst] += 1;
            if self.instance_refs[inst] == 1 {
                self.demanded_instances += 1;
            }
        }
    }

    /// Reverse of [`Tally::probe_enqueued`].
    fn probe_removed(&mut self, set: Option<&[u32]>, instances: &[Constraint]) {
        debug_assert!(self.queued_probes > 0, "probe removed from empty tally");
        self.queued_probes -= 1;
        let Some(set) = set else { return };
        self.constrained_probes -= 1;
        for &inst in set {
            let inst = inst as usize;
            self.demand[instances[inst].kind.index()] -= 1;
            debug_assert!(
                self.instance_refs[inst] > 0,
                "removed probe's instances are refcounted"
            );
            self.instance_refs[inst] -= 1;
            if self.instance_refs[inst] == 0 {
                self.demanded_instances -= 1;
            }
        }
    }
}

/// Read-only view of one tally of a [`CrvLedger`]: the cluster's
/// ([`CrvLedger::cluster`]) or one domain's ([`CrvLedger::domain`]).
#[derive(Debug, Clone, Copy)]
pub struct CrvTally<'a> {
    ledger: &'a CrvLedger,
    tally: &'a Tally,
}

impl CrvTally<'_> {
    /// Queued (probe, constraint) pairs demanding `kind`.
    pub fn demand(&self, kind: ConstraintKind) -> u64 {
        self.tally.demand[kind.index()]
    }

    /// Idle workers in scope satisfying at least one instance of `kind`
    /// that probes queued in scope demand. Computed on each call:
    /// O(instances + demanded instances of `kind` × scope/64).
    pub fn idle_supply(&self, kind: ConstraintKind) -> u64 {
        let t = self.tally;
        if t.demand[kind.index()] == 0 || t.start >= t.end {
            return 0;
        }
        let (first, last) = (t.start >> 6, (t.end - 1) >> 6);
        let mut covered = vec![0u64; last + 1 - first];
        for (inst, &refs) in t.instance_refs.iter().enumerate() {
            if refs == 0 || self.ledger.instances[inst].kind != kind {
                continue;
            }
            let bits = &self.ledger.instance_bits[inst][first..=last];
            for (acc, &b) in covered.iter_mut().zip(bits) {
                *acc |= b;
            }
        }
        for (acc, &idle) in covered.iter_mut().zip(&self.ledger.idle[first..=last]) {
            *acc &= idle;
        }
        let base = first << 6;
        count_ones_in_range(&covered, t.start - base, t.end - base) as u64
    }

    /// Total queued probes in scope.
    pub fn queued_probes(&self) -> usize {
        self.tally.queued_probes
    }

    /// Queued probes in scope belonging to constrained jobs.
    pub fn constrained_probes(&self) -> usize {
        self.tally.constrained_probes
    }

    /// Idle (and alive) workers in scope.
    pub fn idle_workers(&self) -> usize {
        count_ones_in_range(&self.ledger.idle, self.tally.start, self.tally.end)
    }

    /// Distinct constraint instances demanded by probes queued in scope.
    pub fn distinct_instances(&self) -> usize {
        self.tally.demanded_instances
    }
}

impl CrvLedger {
    /// An empty ledger over `workers` all-idle workers, with one domain
    /// tally per `(base, len)` worker range in `domains` (empty for a
    /// centralized run).
    pub fn new(workers: usize, domains: &[(usize, usize)]) -> Self {
        CrvLedger {
            cluster: Tally::over(0, workers),
            domains: domains
                .iter()
                .map(|&(base, len)| Tally::over(base, base + len))
                .collect(),
            idle: vec![!0u64; workers.div_ceil(64)],
            ..CrvLedger::default()
        }
    }

    /// The whole cluster's counters.
    pub fn cluster(&self) -> CrvTally<'_> {
        CrvTally {
            ledger: self,
            tally: &self.cluster,
        }
    }

    /// The counters of federated domain `d`.
    pub fn domain(&self, d: usize) -> CrvTally<'_> {
        CrvTally {
            ledger: self,
            tally: &self.domains[d],
        }
    }

    /// Number of domain tallies (zero for a centralized run).
    pub fn domains(&self) -> usize {
        self.domains.len()
    }

    /// The run's queue high-water mark.
    pub fn queue_stats(&self) -> QueueStats {
        QueueStats {
            peak_queued: self.peak_queued as u64,
        }
    }

    /// Records a probe demanding the interned `set` of `sets` entering the
    /// queue of a worker in `domain` (`None` for a centralized run). `set`
    /// must be the effective set of the probe's job.
    pub fn probe_enqueued(
        &mut self,
        set: SetId,
        sets: &SetTable,
        feasibility: &FeasibilityIndex,
        domain: Option<usize>,
    ) {
        let instances = if sets.get(set).is_unconstrained() {
            None
        } else {
            self.instances_of(set, sets, feasibility);
            Some(&*self.set_instances[set.index()])
        };
        self.cluster.probe_enqueued(instances, &self.instances);
        self.peak_queued = self.peak_queued.max(self.cluster.queued_probes);
        if let Some(d) = domain {
            self.domains[d].probe_enqueued(instances, &self.instances);
        }
    }

    /// Records a queued probe demanding `set` leaving the queue of a worker
    /// in `domain` (dispatch, steal, recall, redundant-probe discard, crash
    /// drain). `set` must be the one the probe was enqueued with: its job's
    /// effective set, which cannot change once the job has probed.
    pub fn probe_removed(&mut self, set: SetId, sets: &SetTable, domain: Option<usize>) {
        let instances = if sets.get(set).is_unconstrained() {
            None
        } else {
            Some(&*self.set_instances[set.index()])
        };
        self.cluster.probe_removed(instances, &self.instances);
        if let Some(d) = domain {
            self.domains[d].probe_removed(instances, &self.instances);
        }
    }

    /// Records `worker` leaving the idle supply: its first slot was
    /// occupied, or it crashed. Idempotent.
    pub fn worker_busy(&mut self, worker: usize) {
        self.idle[worker >> 6] &= !(1u64 << (worker & 63));
    }

    /// Records `worker` rejoining the idle supply: its last slot was freed,
    /// or it recovered. Idempotent.
    pub fn worker_idle(&mut self, worker: usize) {
        self.idle[worker >> 6] |= 1u64 << (worker & 63);
    }

    /// Fills the instance ids of `set` on its first sighting, interning
    /// each never-seen constraint instance with its feasible bitset. (A set
    /// with no instances is refilled, at no cost, on every sighting.)
    fn instances_of(&mut self, set: SetId, sets: &SetTable, feasibility: &FeasibilityIndex) {
        if self.set_instances.len() <= set.index() {
            self.set_instances.resize(set.index() + 1, Box::default());
        }
        if !self.set_instances[set.index()].is_empty() {
            return;
        }
        let instances = sets
            .get(set)
            .iter()
            .map(|c| {
                *self.instance_ids.entry(*c).or_insert_with(|| {
                    self.instances.push(*c);
                    self.instance_bits.push(feasibility.feasible_single(c));
                    u32::try_from(self.instances.len() - 1)
                        .expect("fewer than 2^32 distinct instances")
                })
            })
            .collect();
        self.set_instances[set.index()] = instances;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_constraints::{AttributeVector, ConstraintExpr, ConstraintOp, ConstraintSet};

    /// Interns `set` and records a probe demanding it entering a queue in
    /// `domain`; returns the set's handle, which its removal takes.
    fn enqueue(
        ledger: &mut CrvLedger,
        sets: &mut SetTable,
        index: &FeasibilityIndex,
        set: &ConstraintSet,
        domain: Option<usize>,
    ) -> SetId {
        let set = sets.intern(set);
        ledger.probe_enqueued(set, sets, index, domain);
        set
    }

    fn machines() -> Vec<AttributeVector> {
        // Two big-core machines, two small-core ones.
        (0..4)
            .map(|i| AttributeVector {
                num_cores: if i < 2 { 16 } else { 2 },
                ..AttributeVector::default()
            })
            .collect()
    }

    fn cores_gt(value: u64) -> ConstraintSet {
        ConstraintSet::from_constraints(vec![Constraint::hard(
            ConstraintKind::NumCores,
            ConstraintOp::Gt,
            value,
        )])
    }

    #[test]
    fn demand_and_supply_track_probe_lifecycle() {
        let index = FeasibilityIndex::new(machines());
        let mut ledger = CrvLedger::new(4, &[]);
        let mut sets = SetTable::default();
        let set = enqueue(&mut ledger, &mut sets, &index, &cores_gt(4), None);
        enqueue(&mut ledger, &mut sets, &index, &cores_gt(4), None);
        let cluster = ledger.cluster();
        assert_eq!(cluster.demand(ConstraintKind::NumCores), 2);
        assert_eq!(cluster.idle_supply(ConstraintKind::NumCores), 2);
        assert_eq!(cluster.constrained_probes(), 2);
        assert_eq!(cluster.distinct_instances(), 1);

        ledger.probe_removed(set, &sets, None);
        assert_eq!(ledger.cluster().demand(ConstraintKind::NumCores), 1);
        assert_eq!(ledger.cluster().idle_supply(ConstraintKind::NumCores), 2);

        // Last demanding probe leaves: the instance (and its supply) clears.
        ledger.probe_removed(set, &sets, None);
        let cluster = ledger.cluster();
        assert_eq!(cluster.demand(ConstraintKind::NumCores), 0);
        assert_eq!(cluster.idle_supply(ConstraintKind::NumCores), 0);
        assert_eq!(cluster.distinct_instances(), 0);
        assert_eq!(cluster.queued_probes(), 0);
    }

    #[test]
    fn unconstrained_probes_only_count_queue_depth() {
        let index = FeasibilityIndex::new(machines());
        let mut ledger = CrvLedger::new(4, &[]);
        let mut sets = SetTable::default();
        let any = ConstraintSet::unconstrained();
        let any = enqueue(&mut ledger, &mut sets, &index, &any, None);
        assert_eq!(ledger.cluster().queued_probes(), 1);
        assert_eq!(ledger.cluster().constrained_probes(), 0);
        ledger.probe_removed(any, &sets, None);
        assert_eq!(ledger.cluster().queued_probes(), 0);
    }

    #[test]
    fn empty_projection_is_constrained_without_instances() {
        // A pure-`Not` set constrains placement but projects to no CRV
        // instance: it counts as a constrained probe and demands nothing.
        let index = FeasibilityIndex::new(machines());
        let mut ledger = CrvLedger::new(4, &[(0, 2), (2, 2)]);
        let mut sets = SetTable::default();
        let not_big = ConstraintSet::from_expr(ConstraintExpr::not(ConstraintExpr::leaf(
            Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Gt, 4),
        )));
        assert!(!not_big.is_unconstrained());
        assert_eq!(not_big.iter().count(), 0);
        let not_big = enqueue(&mut ledger, &mut sets, &index, &not_big, Some(1));
        for tally in [ledger.cluster(), ledger.domain(1)] {
            assert_eq!(tally.queued_probes(), 1);
            assert_eq!(tally.constrained_probes(), 1);
            assert_eq!(tally.distinct_instances(), 0);
            for kind in ConstraintKind::ALL {
                assert_eq!(tally.demand(kind), 0);
                assert_eq!(tally.idle_supply(kind), 0);
            }
        }
        assert_eq!(ledger.domain(0).constrained_probes(), 0);
        ledger.probe_removed(not_big, &sets, Some(1));
        assert_eq!(ledger.cluster().constrained_probes(), 0);
        assert_eq!(ledger.domain(1).constrained_probes(), 0);
    }

    #[test]
    fn crash_and_recover_flip_the_idle_bit() {
        let index = FeasibilityIndex::new(machines());
        let mut ledger = CrvLedger::new(4, &[]);
        let mut sets = SetTable::default();
        enqueue(&mut ledger, &mut sets, &index, &cores_gt(4), None);
        assert_eq!(ledger.cluster().idle_supply(ConstraintKind::NumCores), 2);
        // Busy, then crashed while busy: both clear the same bit.
        ledger.worker_busy(0);
        ledger.worker_busy(0);
        assert_eq!(ledger.cluster().idle_supply(ConstraintKind::NumCores), 1);
        assert_eq!(ledger.cluster().idle_workers(), 3);
        // A crashed idle worker leaves the supply too.
        ledger.worker_busy(1);
        assert_eq!(ledger.cluster().idle_supply(ConstraintKind::NumCores), 0);
        assert_eq!(ledger.cluster().idle_workers(), 2);
        // Recovery brings both back.
        ledger.worker_idle(0);
        ledger.worker_idle(1);
        ledger.worker_idle(1);
        assert_eq!(ledger.cluster().idle_supply(ConstraintKind::NumCores), 2);
        assert_eq!(ledger.cluster().idle_workers(), 4);
    }

    #[test]
    fn overlapping_sets_share_instances() {
        let index = FeasibilityIndex::new(machines());
        let mut ledger = CrvLedger::new(4, &[]);
        let mut sets = SetTable::default();
        let shared = Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Gt, 4);
        let a = ConstraintSet::from_constraints(vec![shared]);
        let b = ConstraintSet::from_constraints(vec![
            shared,
            Constraint::hard(ConstraintKind::MinDisks, ConstraintOp::Gt, 0),
        ]);
        let a = enqueue(&mut ledger, &mut sets, &index, &a, None);
        let b = enqueue(&mut ledger, &mut sets, &index, &b, None);
        assert_eq!(ledger.cluster().demand(ConstraintKind::NumCores), 2);
        assert_eq!(ledger.cluster().distinct_instances(), 2);
        // Removing the pure-core probe keeps the shared instance alive.
        ledger.probe_removed(a, &sets, None);
        assert_eq!(ledger.cluster().idle_supply(ConstraintKind::NumCores), 2);
        assert_eq!(ledger.cluster().distinct_instances(), 2);
        ledger.probe_removed(b, &sets, None);
        assert_eq!(ledger.cluster().distinct_instances(), 0);
    }

    #[test]
    fn domain_supply_counts_only_instances_demanded_in_the_domain() {
        // 130 workers (three bitset words) split at the unaligned edge 67.
        let machines: Vec<AttributeVector> = (0..130)
            .map(|i| AttributeVector {
                num_cores: if i % 2 == 0 { 16 } else { 2 },
                ..AttributeVector::default()
            })
            .collect();
        let index = FeasibilityIndex::new(machines);
        let mut ledger = CrvLedger::new(130, &[(0, 67), (67, 63)]);
        let mut sets = SetTable::default();
        assert_eq!(ledger.domain(0).idle_workers(), 67);
        assert_eq!(ledger.domain(1).idle_workers(), 63);
        // A big-core probe queued in domain A: B demands nothing, so its
        // big-core workers are no supply of B's, even though they are idle.
        enqueue(&mut ledger, &mut sets, &index, &cores_gt(4), Some(0));
        assert_eq!(ledger.domain(0).demand(ConstraintKind::NumCores), 1);
        assert_eq!(ledger.domain(0).idle_supply(ConstraintKind::NumCores), 34);
        assert_eq!(ledger.domain(1).demand(ConstraintKind::NumCores), 0);
        assert_eq!(ledger.domain(1).idle_supply(ConstraintKind::NumCores), 0);
        assert_eq!(ledger.domain(1).distinct_instances(), 0);
        assert_eq!(ledger.cluster().idle_supply(ConstraintKind::NumCores), 65);
        // A weaker instance demanded in B counts B's workers only.
        let weak = enqueue(&mut ledger, &mut sets, &index, &cores_gt(1), Some(1));
        assert_eq!(ledger.domain(1).idle_supply(ConstraintKind::NumCores), 63);
        assert_eq!(ledger.domain(0).idle_supply(ConstraintKind::NumCores), 34);
        // Busy workers on either side of the edge leave their own domain.
        ledger.worker_busy(66);
        ledger.worker_busy(67);
        assert_eq!(ledger.domain(0).idle_supply(ConstraintKind::NumCores), 33);
        assert_eq!(ledger.domain(1).idle_supply(ConstraintKind::NumCores), 62);
        assert_eq!(ledger.domain(0).idle_workers(), 66);
        assert_eq!(ledger.domain(1).idle_workers(), 62);
        ledger.probe_removed(weak, &sets, Some(1));
        assert_eq!(ledger.domain(1).idle_supply(ConstraintKind::NumCores), 0);
        assert_eq!(ledger.domain(1).queued_probes(), 0);
        assert_eq!(ledger.cluster().queued_probes(), 1);
    }

    #[test]
    fn requeued_probe_demands_its_set_again() {
        let index = FeasibilityIndex::new(machines());
        let mut ledger = CrvLedger::new(4, &[]);
        let mut sets = SetTable::default();
        // Removal then re-enqueue (a migration) counts the set once.
        let set = enqueue(&mut ledger, &mut sets, &index, &cores_gt(4), None);
        ledger.probe_removed(set, &sets, None);
        enqueue(&mut ledger, &mut sets, &index, &cores_gt(4), None);
        assert_eq!(ledger.cluster().demand(ConstraintKind::NumCores), 1);
        assert_eq!(ledger.cluster().constrained_probes(), 1);
        ledger.probe_removed(set, &sets, None);
        assert_eq!(ledger.cluster().demand(ConstraintKind::NumCores), 0);
        assert_eq!(ledger.cluster().queued_probes(), 0);
    }

    #[test]
    fn peak_queued_is_the_cluster_high_water_mark() {
        let index = FeasibilityIndex::new(machines());
        let mut ledger = CrvLedger::new(4, &[(0, 2), (2, 2)]);
        let mut sets = SetTable::default();
        let any = ConstraintSet::unconstrained();
        let mut queued = Vec::new();
        for domain in [0, 1, 1] {
            let set = enqueue(&mut ledger, &mut sets, &index, &any, Some(domain));
            queued.push((set, domain));
        }
        let big = enqueue(&mut ledger, &mut sets, &index, &cores_gt(4), Some(0));
        ledger.probe_removed(big, &sets, Some(0));
        for (set, domain) in queued {
            ledger.probe_removed(set, &sets, Some(domain));
        }
        enqueue(&mut ledger, &mut sets, &index, &any, Some(0));
        assert_eq!(ledger.cluster().queued_probes(), 1);
        assert_eq!(ledger.queue_stats(), QueueStats { peak_queued: 4 });
    }
}
