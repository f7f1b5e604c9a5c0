//! The CRV monitor: per-heartbeat demand/supply accounting
//! (`CRV_Monitor` + `CRV_Lookup_Table` of Fig. 5).

use std::collections::HashMap;

use phoenix_constraints::{Constraint, ConstraintKind, Crv, CrvTable};
use phoenix_sim::SimState;

/// Snapshot statistics produced by one monitor refresh.
#[derive(Debug, Clone, Default)]
pub struct MonitorSnapshot {
    /// Total queued probes inspected.
    pub queued_probes: usize,
    /// Queued probes belonging to constrained jobs.
    pub constrained_probes: usize,
    /// Idle workers at refresh time.
    pub idle_workers: usize,
}

/// The CRV monitor.
///
/// Every heartbeat it measures per-constraint-kind *demand* (queued tasks
/// of constrained jobs asking for the resource) and *supply* (idle workers
/// able to satisfy the queued constraint instances of that kind), maintains
/// the `CRV_Lookup_Table`, and exposes the aggregated six-dimensional CRV
/// ratio vector.
///
/// [`CrvMonitor::refresh`] reads the engine's [`phoenix_sim::CrvLedger`],
/// or the installed gossip summaries on a partitioned federated run. The
/// historical full-cluster rescan ([`CrvMonitor::refresh_full_rescan`]) is
/// the reference oracle: in debug builds every ledger refresh is
/// cross-checked against it and panics on divergence.
#[derive(Debug, Clone, Default)]
pub struct CrvMonitor {
    table: CrvTable,
    crv: Crv,
    snapshot: MonitorSnapshot,
}

impl CrvMonitor {
    /// Creates an empty monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// The lookup table from the latest refresh.
    pub fn table(&self) -> &CrvTable {
        &self.table
    }

    /// The aggregated CRV ratio vector from the latest refresh.
    pub fn crv(&self) -> Crv {
        self.crv
    }

    /// Statistics of the latest refresh.
    pub fn snapshot(&self) -> &MonitorSnapshot {
        &self.snapshot
    }

    /// The most contended kind and its demand/supply ratio.
    pub fn max_ratio(&self) -> (ConstraintKind, f64) {
        self.table.max_ratio()
    }

    /// Refreshes the table from live simulation state.
    ///
    /// A partitioned federation's coordinator sees only gossip: the
    /// per-kind demand/supply and queue aggregates summed over every
    /// domain's latest *installed* summary. That view is *supposed* to lag
    /// ground truth, so it is not cross-checked. Otherwise the refresh
    /// reads the ledger's cluster tally and, in debug builds, checks it
    /// against a from-scratch rescan.
    pub fn refresh(&mut self, state: &SimState) {
        let (demand, supply, snapshot) = match state.federation() {
            Some(fed) => (
                ConstraintKind::ALL.map(|kind| fed.visible_demand(kind)),
                ConstraintKind::ALL.map(|kind| fed.visible_idle_supply(kind)),
                MonitorSnapshot {
                    queued_probes: fed.visible_queued_probes(),
                    constrained_probes: fed.visible_constrained_probes(),
                    idle_workers: fed.visible_idle_workers(),
                },
            ),
            None => {
                let ledger = state.crv_ledger().cluster();
                (
                    ConstraintKind::ALL.map(|kind| ledger.demand(kind)),
                    ConstraintKind::ALL.map(|kind| ledger.idle_supply(kind)),
                    MonitorSnapshot {
                        queued_probes: ledger.queued_probes(),
                        constrained_probes: ledger.constrained_probes(),
                        idle_workers: ledger.idle_workers(),
                    },
                )
            }
        };
        self.table.reset_demand();
        for (i, kind) in ConstraintKind::ALL.into_iter().enumerate() {
            self.table.add_demand(kind, demand[i] as f64);
            self.table.set_supply(kind, supply[i] as f64);
        }
        self.crv = self.table.to_crv();
        self.snapshot = snapshot;
        #[cfg(debug_assertions)]
        if state.federation().is_none() {
            self.oracle_cross_check(state);
        }
    }

    /// Cross-checks the ledger-backed tables against a from-scratch rescan;
    /// any divergence is a ledger-hook bug.
    #[cfg(debug_assertions)]
    fn oracle_cross_check(&self, state: &SimState) {
        let mut oracle = CrvMonitor::new();
        oracle.refresh_full_rescan(state);
        for kind in ConstraintKind::ALL {
            assert_eq!(
                self.table.demand(kind),
                oracle.table.demand(kind),
                "ledger CRV demand for {kind} diverged from full rescan"
            );
            assert_eq!(
                self.table.supply(kind),
                oracle.table.supply(kind),
                "ledger CRV supply for {kind} diverged from full rescan"
            );
        }
        assert_eq!(self.snapshot.queued_probes, oracle.snapshot.queued_probes);
        assert_eq!(
            self.snapshot.constrained_probes,
            oracle.snapshot.constrained_probes
        );
        assert_eq!(self.snapshot.idle_workers, oracle.snapshot.idle_workers);
    }

    /// Refreshes the table by scanning the whole cluster
    /// (O(workers × probes × constraints)).
    ///
    /// Demand: one unit per queued probe per constraint of its job's
    /// effective set. Supply: per kind, the number of *idle* workers
    /// satisfying at least one queued constraint instance of that kind.
    pub fn refresh_full_rescan(&mut self, state: &SimState) {
        self.table.reset_demand();
        let mut snapshot = MonitorSnapshot::default();

        // Pass 1: demand and the distinct constraint instances per kind.
        let mut instances: HashMap<Constraint, ()> = HashMap::new();
        for worker in &state.workers {
            for probe in worker.queue() {
                snapshot.queued_probes += 1;
                let set = state.sets.get(state.jobs.effective(probe.job));
                if set.is_unconstrained() {
                    continue;
                }
                snapshot.constrained_probes += 1;
                for c in set.iter() {
                    self.table.add_demand(c.kind, 1.0);
                    instances.entry(*c).or_insert(());
                }
            }
        }

        // Pass 2: idle workers.
        let idle: Vec<bool> = state
            .workers
            .iter()
            .map(|w| w.is_idle() && w.is_alive())
            .collect();
        snapshot.idle_workers = idle.iter().filter(|&&b| b).count();

        // Pass 3: supply per kind = idle workers satisfying any queued
        // instance of that kind.
        let mut satisfied = vec![0u16; state.workers.len()];
        let mut kind_mask: Vec<u16> = vec![0; ConstraintKind::COUNT];
        for (bit, kind) in ConstraintKind::ALL.iter().enumerate() {
            kind_mask[kind.index()] = 1 << bit;
        }
        for constraint in instances.keys() {
            let mask = kind_mask[constraint.kind.index()];
            let bits = state.feasibility.feasible_single(constraint);
            for (i, &word) in bits.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    satisfied[(i << 6) + word.trailing_zeros() as usize] |= mask;
                    word &= word - 1;
                }
            }
        }
        for kind in ConstraintKind::ALL {
            let mask = kind_mask[kind.index()];
            let supply = satisfied
                .iter()
                .zip(idle.iter())
                .filter(|&(&s, &i)| i && (s & mask) != 0)
                .count();
            self.table.set_supply(kind, supply as f64);
        }

        self.crv = self.table.to_crv();
        self.snapshot = snapshot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_constraints::{
        ConstraintOp, ConstraintSet, FeasibilityIndex, MachinePopulation, PopulationProfile,
    };
    use phoenix_sim::{Probe, ProbeId, SimConfig, SimTime, Simulation, WorkerId};
    use phoenix_traces::{Job, JobId, Trace};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn state_with(nodes: usize, constraints: Vec<ConstraintSet>) -> phoenix_sim::SimState {
        state_with_config(nodes, constraints, SimConfig::default())
    }

    fn state_with_config(
        nodes: usize,
        constraints: Vec<ConstraintSet>,
        config: SimConfig,
    ) -> phoenix_sim::SimState {
        let mut rng = StdRng::seed_from_u64(1);
        let cluster =
            MachinePopulation::generate(PopulationProfile::google_like(), nodes, &mut rng);
        let jobs: Vec<Job> = constraints
            .into_iter()
            .enumerate()
            .map(|(i, set)| Job {
                id: JobId(i as u32),
                arrival_s: 0.0,
                task_durations_s: vec![1.0],
                estimated_task_duration_s: 1.0,
                constraints: set,
                short: true,
                user: 0,
            })
            .collect();
        let trace = Trace::new("t", jobs);
        let sim = Simulation::new(
            config,
            FeasibilityIndex::new(cluster.into_machines()),
            &trace,
            Box::new(phoenix_sim::RandomScheduler::new(1)),
            1,
        );
        sim.into_state_for_tests()
    }

    fn enqueue(state: &mut phoenix_sim::SimState, worker: u32, job: u32) {
        state.enqueue_probe(
            WorkerId(worker),
            Probe {
                id: ProbeId(u64::from(job)),
                job: JobId(job),
                bound_duration_us: None,
                est_duration_us: state.jobs.estimated_task_us(JobId(job)),
                slowdown: 1.0,
                enqueued_at: SimTime::ZERO,
                bypass_count: 0,
                migrations: 0,
                retries: 0,
            },
        );
    }

    #[test]
    fn empty_state_has_zero_ratios() {
        let mut monitor = CrvMonitor::new();
        let state = state_with(10, vec![]);
        monitor.refresh(&state);
        assert_eq!(monitor.max_ratio().1, 0.0);
        assert_eq!(monitor.snapshot().queued_probes, 0);
        assert_eq!(monitor.snapshot().idle_workers, 10);
    }

    #[test]
    fn demand_counts_constrained_probes_per_kind() {
        let set = ConstraintSet::from_constraints(vec![Constraint::hard(
            ConstraintKind::NumCores,
            ConstraintOp::Gt,
            4,
        )]);
        let mut state = state_with(20, vec![set.clone(), set, ConstraintSet::unconstrained()]);
        enqueue(&mut state, 0, 0);
        enqueue(&mut state, 1, 1);
        enqueue(&mut state, 2, 2); // unconstrained
        let mut monitor = CrvMonitor::new();
        monitor.refresh(&state);
        assert_eq!(monitor.table().demand(ConstraintKind::NumCores), 2.0);
        assert_eq!(monitor.snapshot().queued_probes, 3);
        assert_eq!(monitor.snapshot().constrained_probes, 2);
        // Supply: idle workers with > 4 cores exist in a 20-node google mix.
        assert!(monitor.table().supply(ConstraintKind::NumCores) > 0.0);
        let (kind, ratio) = monitor.max_ratio();
        assert_eq!(kind, ConstraintKind::NumCores);
        assert!(ratio > 0.0);
    }

    #[test]
    fn supply_counts_only_idle_satisfying_workers() {
        let set = ConstraintSet::from_constraints(vec![Constraint::hard(
            ConstraintKind::NumCores,
            ConstraintOp::Gt,
            4,
        )]);
        let mut state = state_with(10, vec![set]);
        enqueue(&mut state, 0, 0);
        let mut monitor = CrvMonitor::new();
        monitor.refresh(&state);
        let supply_all_idle = monitor.table().supply(ConstraintKind::NumCores);
        // Make every worker busy: supply must drop to zero.
        let now = SimTime::ZERO;
        for i in 0..10u32 {
            state.start_task_on(
                WorkerId(i),
                phoenix_sim::worker::RunningTask {
                    job: JobId(0),
                    finish_at: SimTime::from_secs_f64(100.0),
                    duration_us: 100_000_000,
                    raw_duration_us: 100_000_000,
                    slowdown: 1.0,
                    bound: false,
                    seq: u64::from(i),
                },
                now,
            );
        }
        monitor.refresh(&state);
        assert!(supply_all_idle > 0.0);
        assert_eq!(monitor.table().supply(ConstraintKind::NumCores), 0.0);
        // Positive demand with zero supply → infinite contention.
        assert!(monitor.max_ratio().1.is_infinite());
    }

    #[test]
    fn ledger_refresh_matches_full_rescan() {
        let cpu = ConstraintSet::from_constraints(vec![Constraint::hard(
            ConstraintKind::NumCores,
            ConstraintOp::Gt,
            4,
        )]);
        let net = ConstraintSet::from_constraints(vec![Constraint::soft(
            ConstraintKind::EthernetSpeed,
            ConstraintOp::Gt,
            900,
        )]);
        let mut state = state_with(25, vec![cpu, net, ConstraintSet::unconstrained()]);
        enqueue(&mut state, 0, 0);
        enqueue(&mut state, 1, 1);
        enqueue(&mut state, 3, 2);
        state.start_task_on(
            WorkerId(2),
            phoenix_sim::worker::RunningTask {
                job: JobId(0),
                finish_at: SimTime::from_secs_f64(10.0),
                duration_us: 10_000_000,
                raw_duration_us: 10_000_000,
                slowdown: 1.0,
                bound: false,
                seq: 0,
            },
            SimTime::ZERO,
        );
        let mut ledger = CrvMonitor::new();
        ledger.refresh(&state);
        let mut rescan = CrvMonitor::new();
        rescan.refresh_full_rescan(&state);
        assert_eq!(ledger.table(), rescan.table());
        assert_eq!(ledger.crv(), rescan.crv());
        assert_eq!(
            ledger.snapshot().idle_workers,
            rescan.snapshot().idle_workers
        );
    }

    /// On a partitioned run the refresh reads *installed gossip summaries
    /// only*: demand enqueued after the last round is invisible until the
    /// next delivery. With federation off it reads the live ledger.
    #[test]
    fn partitioned_refresh_sees_only_gossiped_state() {
        let set = ConstraintSet::from_constraints(vec![Constraint::hard(
            ConstraintKind::NumCores,
            ConstraintOp::Gt,
            4,
        )]);
        let config = SimConfig {
            federation: phoenix_sim::FederationConfig::sharded(2, phoenix_sim::SimDuration::ZERO),
            ..SimConfig::default()
        };
        let mut state = state_with_config(20, vec![set.clone()], config);
        enqueue(&mut state, 0, 0);
        let mut monitor = CrvMonitor::new();
        monitor.refresh(&state);
        // No gossip round has run: the stale view is still empty even
        // though a live rescan would see the queued probe.
        assert_eq!(monitor.snapshot().queued_probes, 0);
        assert_eq!(monitor.table().demand(ConstraintKind::NumCores), 0.0);
        let mut live = CrvMonitor::new();
        live.refresh_full_rescan(&state);
        assert_eq!(live.snapshot().queued_probes, 1);
        // Federation off: the refresh reads the live ledger.
        let mut central = state_with(20, vec![set]);
        enqueue(&mut central, 0, 0);
        let mut centralized = CrvMonitor::new();
        centralized.refresh(&central);
        assert_eq!(centralized.snapshot().queued_probes, 1);
        assert!(centralized.table().demand(ConstraintKind::NumCores) > 0.0);
    }

    #[test]
    fn crv_vector_tracks_hottest_kind_per_dimension() {
        let set = ConstraintSet::from_constraints(vec![Constraint::hard(
            ConstraintKind::KernelVersion,
            ConstraintOp::Gt,
            300,
        )]);
        let mut state = state_with(30, vec![set]);
        enqueue(&mut state, 0, 0);
        let mut monitor = CrvMonitor::new();
        monitor.refresh(&state);
        let crv = monitor.crv();
        assert!(crv[phoenix_constraints::CrvDimension::Os] > 0.0);
        assert_eq!(crv[phoenix_constraints::CrvDimension::Net], 0.0);
    }
}
