//! CRV demand/supply ledger: demand is counted as probes move, supply is
//! computed when it is read.
//!
//! Supply is read only at the CRV monitor's heartbeat refresh and at each
//! federated gossip round — a few hundred times per run — while probes move
//! on every enqueue, dispatch, steal and migration. So the ledger keeps only
//! what is cheap to keep exact on every move and derives the rest on read:
//!
//! * **Demand**: one unit per queued probe per constraint of its job's
//!   effective set, plus a refcount per distinct constraint instance. The
//!   set a probe demands is interned at enqueue time (jobs' effective
//!   constraints are final before any of their probes arrive; a debug
//!   assertion checks this).
//! * **Idle bitset**: one bit per worker, set while the worker is idle and
//!   alive. Idle↔busy transitions flip one bit.
//! * **Supply** (on read): per kind, the idle workers satisfying at least
//!   one demanded instance of that kind — `popcount(idle ∧ ⋁ bits(i))` over
//!   the demanded instances `i` of the kind. Each instance's bitset comes
//!   from [`FeasibilityIndex::feasible_single`] once, when the instance is
//!   first interned.
//!
//! Counters live in a [`CrvTally`]: one for the whole cluster and, on a
//! partitioned federated run, one per domain. A domain tally counts only the
//! probes queued on its own workers, and its supply is the same popcount
//! restricted to its worker range over the instances *those* probes demand.
//! All tallies share the set/instance interning and the idle bitset.
//!
//! The per-probe steady state is hash-free: sets are interned once per *job*
//! into a dense id, each queued probe's set id lives in a dense vector
//! indexed by the sequential probe id, and refcounts are plain vector slots
//! addressed by interned instance ids. Hash maps are only touched when a
//! never-seen set or instance is interned.
//!
//! All probe movement between queues and all slot transitions must go
//! through the [`crate::SimState`] / [`crate::SimCtx`] wrappers that feed
//! this ledger; mutating [`crate::Worker`] queues directly desynchronizes
//! it (the monitor's debug oracle and the invariant auditor catch that).

use std::collections::HashMap;
use std::sync::Arc;

use phoenix_constraints::{
    count_ones_in_range, Constraint, ConstraintKind, ConstraintSet, FeasibilityIndex,
};
use phoenix_traces::JobId;

use crate::probe::ProbeId;

/// Dense-id sentinel: "no interned set here".
const ABSENT: u32 = u32::MAX;

/// CRV demand counters over the shared idle bitset (see module docs).
#[derive(Debug, Clone, Default)]
pub struct CrvLedger {
    /// The whole cluster's counters.
    cluster: Tally,
    /// One tally per federated domain; empty unless the run is partitioned.
    domains: Vec<Tally>,
    /// Interned constraint sets, by set id (kept for the debug check that a
    /// job's set never changes).
    sets: Vec<Vec<Constraint>>,
    /// Interned instance ids of each set, parallel to `sets`.
    set_instances: Vec<Vec<u32>>,
    set_ids: HashMap<Vec<Constraint>, u32>,
    /// Memoized set id per job (dense by job index, `ABSENT` until the
    /// job's first constrained probe is enqueued).
    job_sets: Vec<u32>,
    /// Interned set id of each queued *constrained* probe, dense by probe
    /// id (`ABSENT` = unconstrained or not queued).
    probe_set: Vec<u32>,
    /// Interned distinct constraint instances, by instance id.
    instances: Vec<Constraint>,
    /// Feasible workers of each instance as a bitset (parallel to
    /// `instances`).
    instance_bits: Vec<Arc<[u64]>>,
    instance_ids: HashMap<Constraint, u32>,
    /// One bit per worker: set while the worker is idle and alive. Bits
    /// past the last worker are never read: every count masks to a range.
    idle: Vec<u64>,
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

    /// Records a probe of `job` demanding `set` entering the queue of a
    /// worker in `domain` (`None` for a centralized run). `set` must be the
    /// job's effective set — it is interned once per job and subsequent
    /// probes reuse the handle.
    pub fn probe_enqueued(
        &mut self,
        id: ProbeId,
        job: JobId,
        set: &ConstraintSet,
        feasibility: &FeasibilityIndex,
        domain: Option<usize>,
    ) {
        let set_id = if set.is_unconstrained() {
            None
        } else {
            let job_idx = job.0 as usize;
            if self.job_sets.len() <= job_idx {
                self.job_sets.resize(job_idx + 1, ABSENT);
            }
            let mut set_id = self.job_sets[job_idx];
            if set_id == ABSENT {
                set_id = self.intern(set, feasibility);
                self.job_sets[job_idx] = set_id;
            }
            debug_assert!(
                self.sets[set_id as usize]
                    .iter()
                    .copied()
                    .eq(set.iter().copied()),
                "job {job:?} effective set changed after its first probe was interned"
            );
            let pid = usize::try_from(id.0).expect("probe id fits usize");
            if self.probe_set.len() <= pid {
                self.probe_set.resize(pid + 1, ABSENT);
            }
            debug_assert_eq!(
                self.probe_set[pid], ABSENT,
                "probe {id:?} enqueued twice without removal"
            );
            self.probe_set[pid] = set_id;
            Some(set_id)
        };
        let set = set_id.map(|s| self.set_instances[s as usize].as_slice());
        self.cluster.probe_enqueued(set, &self.instances);
        if let Some(d) = domain {
            self.domains[d].probe_enqueued(set, &self.instances);
        }
    }

    /// Records a queued probe leaving the queue of a worker in `domain`
    /// (dispatch, steal, recall, redundant-probe discard, crash drain).
    pub fn probe_removed(&mut self, id: ProbeId, domain: Option<usize>) {
        let pid = usize::try_from(id.0).expect("probe id fits usize");
        let set_id = match self.probe_set.get(pid) {
            Some(&s) if s != ABSENT => {
                self.probe_set[pid] = ABSENT;
                Some(s)
            }
            _ => None, // unconstrained probe
        };
        let set = set_id.map(|s| self.set_instances[s as usize].as_slice());
        self.cluster.probe_removed(set, &self.instances);
        if let Some(d) = domain {
            self.domains[d].probe_removed(set, &self.instances);
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

    /// Interns a constraint set (and each of its instances) into dense
    /// ids. Only reached once per distinct set — per-probe traffic goes
    /// through the `job_sets` memo.
    fn intern(&mut self, set: &ConstraintSet, feasibility: &FeasibilityIndex) -> u32 {
        let key: Vec<Constraint> = set.iter().copied().collect();
        if let Some(&id) = self.set_ids.get(&key) {
            return id;
        }
        let id = u32::try_from(self.sets.len()).expect("fewer than 2^32 distinct sets");
        let instances = key
            .iter()
            .map(|c| {
                if let Some(&i) = self.instance_ids.get(c) {
                    return i;
                }
                let i = u32::try_from(self.instances.len())
                    .expect("fewer than 2^32 distinct instances");
                self.instances.push(*c);
                self.instance_bits.push(feasibility.feasible_single(c));
                self.instance_ids.insert(*c, i);
                i
            })
            .collect();
        self.sets.push(key.clone());
        self.set_instances.push(instances);
        self.set_ids.insert(key, id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_constraints::{AttributeVector, ConstraintExpr, ConstraintOp};

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
        let set = cores_gt(4);
        ledger.probe_enqueued(ProbeId(1), JobId(0), &set, &index, None);
        ledger.probe_enqueued(ProbeId(2), JobId(0), &set, &index, None);
        let cluster = ledger.cluster();
        assert_eq!(cluster.demand(ConstraintKind::NumCores), 2);
        assert_eq!(cluster.idle_supply(ConstraintKind::NumCores), 2);
        assert_eq!(cluster.constrained_probes(), 2);
        assert_eq!(cluster.distinct_instances(), 1);

        ledger.probe_removed(ProbeId(1), None);
        assert_eq!(ledger.cluster().demand(ConstraintKind::NumCores), 1);
        assert_eq!(ledger.cluster().idle_supply(ConstraintKind::NumCores), 2);

        // Last demanding probe leaves: the instance (and its supply) clears.
        ledger.probe_removed(ProbeId(2), None);
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
        ledger.probe_enqueued(
            ProbeId(9),
            JobId(3),
            &ConstraintSet::unconstrained(),
            &index,
            None,
        );
        assert_eq!(ledger.cluster().queued_probes(), 1);
        assert_eq!(ledger.cluster().constrained_probes(), 0);
        ledger.probe_removed(ProbeId(9), None);
        assert_eq!(ledger.cluster().queued_probes(), 0);
    }

    #[test]
    fn empty_projection_is_constrained_without_instances() {
        // A pure-`Not` set constrains placement but projects to no CRV
        // instance: it counts as a constrained probe and demands nothing.
        let index = FeasibilityIndex::new(machines());
        let mut ledger = CrvLedger::new(4, &[(0, 2), (2, 2)]);
        let not_big = ConstraintSet::from_expr(ConstraintExpr::not(ConstraintExpr::leaf(
            Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Gt, 4),
        )));
        assert!(!not_big.is_unconstrained());
        assert_eq!(not_big.iter().count(), 0);
        ledger.probe_enqueued(ProbeId(1), JobId(0), &not_big, &index, Some(1));
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
        ledger.probe_removed(ProbeId(1), Some(1));
        assert_eq!(ledger.cluster().constrained_probes(), 0);
        assert_eq!(ledger.domain(1).constrained_probes(), 0);
    }

    #[test]
    fn crash_and_recover_flip_the_idle_bit() {
        let index = FeasibilityIndex::new(machines());
        let mut ledger = CrvLedger::new(4, &[]);
        ledger.probe_enqueued(ProbeId(1), JobId(0), &cores_gt(4), &index, None);
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
        let shared = Constraint::hard(ConstraintKind::NumCores, ConstraintOp::Gt, 4);
        let a = ConstraintSet::from_constraints(vec![shared]);
        let b = ConstraintSet::from_constraints(vec![
            shared,
            Constraint::hard(ConstraintKind::MinDisks, ConstraintOp::Gt, 0),
        ]);
        ledger.probe_enqueued(ProbeId(1), JobId(0), &a, &index, None);
        ledger.probe_enqueued(ProbeId(2), JobId(1), &b, &index, None);
        assert_eq!(ledger.cluster().demand(ConstraintKind::NumCores), 2);
        assert_eq!(ledger.cluster().distinct_instances(), 2);
        // Removing the pure-core probe keeps the shared instance alive.
        ledger.probe_removed(ProbeId(1), None);
        assert_eq!(ledger.cluster().idle_supply(ConstraintKind::NumCores), 2);
        assert_eq!(ledger.cluster().distinct_instances(), 2);
        ledger.probe_removed(ProbeId(2), None);
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
        assert_eq!(ledger.domain(0).idle_workers(), 67);
        assert_eq!(ledger.domain(1).idle_workers(), 63);
        // A big-core probe queued in domain A: B demands nothing, so its
        // big-core workers are no supply of B's, even though they are idle.
        ledger.probe_enqueued(ProbeId(1), JobId(0), &cores_gt(4), &index, Some(0));
        assert_eq!(ledger.domain(0).demand(ConstraintKind::NumCores), 1);
        assert_eq!(ledger.domain(0).idle_supply(ConstraintKind::NumCores), 34);
        assert_eq!(ledger.domain(1).demand(ConstraintKind::NumCores), 0);
        assert_eq!(ledger.domain(1).idle_supply(ConstraintKind::NumCores), 0);
        assert_eq!(ledger.domain(1).distinct_instances(), 0);
        assert_eq!(ledger.cluster().idle_supply(ConstraintKind::NumCores), 65);
        // A weaker instance demanded in B counts B's workers only.
        ledger.probe_enqueued(ProbeId(2), JobId(1), &cores_gt(1), &index, Some(1));
        assert_eq!(ledger.domain(1).idle_supply(ConstraintKind::NumCores), 63);
        assert_eq!(ledger.domain(0).idle_supply(ConstraintKind::NumCores), 34);
        // Busy workers on either side of the edge leave their own domain.
        ledger.worker_busy(66);
        ledger.worker_busy(67);
        assert_eq!(ledger.domain(0).idle_supply(ConstraintKind::NumCores), 33);
        assert_eq!(ledger.domain(1).idle_supply(ConstraintKind::NumCores), 62);
        assert_eq!(ledger.domain(0).idle_workers(), 66);
        assert_eq!(ledger.domain(1).idle_workers(), 62);
        ledger.probe_removed(ProbeId(2), Some(1));
        assert_eq!(ledger.domain(1).idle_supply(ConstraintKind::NumCores), 0);
        assert_eq!(ledger.domain(1).queued_probes(), 0);
        assert_eq!(ledger.cluster().queued_probes(), 1);
    }

    #[test]
    fn probe_ids_and_job_memo_reuse_dense_handles() {
        let index = FeasibilityIndex::new(machines());
        let mut ledger = CrvLedger::new(4, &[]);
        let set = cores_gt(4);
        // Re-enqueue after removal (migration) reuses the probe id slot.
        ledger.probe_enqueued(ProbeId(5), JobId(2), &set, &index, None);
        ledger.probe_removed(ProbeId(5), None);
        ledger.probe_enqueued(ProbeId(5), JobId(2), &set, &index, None);
        assert_eq!(ledger.cluster().demand(ConstraintKind::NumCores), 1);
        assert_eq!(ledger.cluster().constrained_probes(), 1);
        ledger.probe_removed(ProbeId(5), None);
        assert_eq!(ledger.cluster().demand(ConstraintKind::NumCores), 0);
        assert_eq!(ledger.cluster().queued_probes(), 0);
    }
}
