//! Federated domain sharding and eventually-consistent CRV gossip.
//!
//! With [`crate::config::FederationConfig::domains`] = K > 1 the cluster is
//! split into K contiguous worker ranges ("domains"). The engine's
//! [`CrvLedger`] keeps one tally per domain next to its cluster-wide one:
//! each probe counts in the domain of the worker queue it sits on, and a
//! domain's supply is computed over its own worker range only.
//!
//! Domains learn about each other only through **gossip**: every
//! [`crate::config::FederationConfig::gossip_interval`] the engine
//! publishes one compact [`DomainSummary`] per domain (per-kind CRV
//! demand/supply plus queue-pressure aggregates, read from the domain's
//! ledger tally) and installs the batch after
//! [`crate::config::FederationConfig::staleness`]. Cross-domain placement
//! reads only these stale summaries — never a remote tally — so a crashed
//! worker's supply leaves its home tally immediately but leaves remote
//! views only at the next delivered gossip round. That lag is the
//! eventual-consistency cost the federated benchmark ladder measures.
//!
//! Gossip is deterministic: no randomness is drawn and event times derive
//! only from the configured interval/staleness. With K ≤ 1 no
//! [`FederationState`] exists at all, so the run is the centralized engine
//! (the byte-parity rule of [`crate::config::FederationConfig`]).

use std::collections::VecDeque;

use phoenix_constraints::{ConstraintKind, ConstraintSet, FeasibilityIndex};

use crate::config::FederationConfig;
use crate::crvledger::CrvLedger;
use crate::time::SimTime;

/// One domain's published CRV summary: everything a remote domain is
/// allowed to know about it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DomainSummary {
    /// Virtual time the summary was snapshotted at.
    pub published_at: u64,
    /// Per kind: queued (probe, constraint) pairs demanding it.
    pub demand: [u64; ConstraintKind::COUNT],
    /// Per kind: idle in-domain workers supplying a demanded instance.
    pub idle_supply: [u64; ConstraintKind::COUNT],
    /// Queued probes across the domain's worker queues.
    pub queued_probes: usize,
    /// Queued probes belonging to constrained jobs.
    pub constrained_probes: usize,
    /// Idle (and alive) workers in the domain.
    pub idle_workers: usize,
}

/// Non-digested federation observability, reported in
/// [`crate::SimResult::federation`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FederationStats {
    /// Gossip rounds published (one batch of K summaries each).
    pub gossip_rounds: u64,
    /// Summary batches installed as visible (equals rounds once delivered).
    pub batches_delivered: u64,
    /// Placements satisfied inside the job's home domain.
    pub home_samples: u64,
    /// Placements routed to a summary-chosen remote domain.
    pub remote_samples: u64,
    /// Placements that fell through to an unrestricted cluster-wide sample
    /// (no domain looked feasible, or the remote probe came back empty).
    pub cluster_fallbacks: u64,
}

/// Mutable federation state owned by the engine (one per simulation when
/// [`FederationConfig::is_partitioned`]).
#[derive(Debug)]
pub struct FederationState {
    config: FederationConfig,
    workers: usize,
    /// `ranges[d] = (base, len)` of domain `d`'s contiguous worker slice.
    ranges: Vec<(usize, usize)>,
    /// Latest *installed* summary per domain (what remote placement sees).
    visible: Vec<DomainSummary>,
    /// Published-but-undelivered summary batches, FIFO (every batch waits
    /// the same staleness, so delivery order matches publish order).
    inflight: VecDeque<Vec<DomainSummary>>,
    /// Observability counters.
    pub stats: FederationStats,
}

impl FederationState {
    /// Shards `workers` into `config.domains` near-equal contiguous
    /// ranges (the first `workers % K` domains get one extra worker).
    pub fn new(config: FederationConfig, workers: usize) -> Self {
        let k = config.domains.max(1);
        let mut ranges = Vec::with_capacity(k);
        let mut base = 0;
        for d in 0..k {
            let len = workers / k + usize::from(d < workers % k);
            ranges.push((base, len));
            base += len;
        }
        debug_assert_eq!(base, workers, "domain ranges must tile the cluster");
        FederationState {
            config,
            workers,
            visible: vec![DomainSummary::default(); k],
            inflight: VecDeque::new(),
            ranges,
            stats: FederationStats::default(),
        }
    }

    /// The federation configuration this state was built from.
    pub fn config(&self) -> &FederationConfig {
        &self.config
    }

    /// Number of domains.
    pub fn domains(&self) -> usize {
        self.ranges.len()
    }

    /// The home domain of a job: a static `job_id mod K` assignment (the
    /// per-domain scheduler front-end the job arrived at).
    pub fn domain_of_job(&self, job_id: u32) -> usize {
        job_id as usize % self.ranges.len()
    }

    /// The domain owning `worker`.
    pub fn domain_of_worker(&self, worker: usize) -> usize {
        debug_assert!(worker < self.workers);
        // Contiguous near-equal ranges: derive the domain arithmetically
        // (the first `rem` domains are one wider).
        let k = self.ranges.len();
        let (quot, rem) = (self.workers / k, self.workers % k);
        let wide = rem * (quot + 1);
        let d = if worker < wide {
            worker / (quot + 1)
        } else {
            match (worker - wide).checked_div(quot) {
                Some(narrow) => rem + narrow,
                None => k - 1,
            }
        };
        debug_assert!({
            let (base, len) = self.ranges[d];
            (base..base + len).contains(&worker)
        });
        d
    }

    /// The contiguous worker range `(base, len)` of every domain, in
    /// domain order.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// The latest installed (stale) summary of domain `d`.
    pub fn visible(&self, d: usize) -> &DomainSummary {
        &self.visible[d]
    }

    /// Snapshots every domain's tally of `ledger` into a summary batch and
    /// queues it for delivery. Returns `true` when the batch must be
    /// delivered by a later `GossipDeliver` event (nonzero staleness); with
    /// zero staleness the batch is installed immediately.
    pub(crate) fn publish(&mut self, now: SimTime, ledger: &CrvLedger) -> bool {
        let batch: Vec<DomainSummary> = (0..self.domains())
            .map(|d| {
                let tally = ledger.domain(d);
                DomainSummary {
                    published_at: now.as_micros(),
                    demand: std::array::from_fn(|k| tally.demand(ConstraintKind::ALL[k])),
                    idle_supply: std::array::from_fn(|k| tally.idle_supply(ConstraintKind::ALL[k])),
                    queued_probes: tally.queued_probes(),
                    constrained_probes: tally.constrained_probes(),
                    idle_workers: tally.idle_workers(),
                }
            })
            .collect();
        self.stats.gossip_rounds += 1;
        if self.config.staleness.as_micros() == 0 {
            self.visible = batch;
            self.stats.batches_delivered += 1;
            false
        } else {
            self.inflight.push_back(batch);
            true
        }
    }

    /// Installs the oldest in-flight batch (the matching `GossipDeliver`
    /// event fired).
    pub(crate) fn deliver(&mut self) {
        if let Some(batch) = self.inflight.pop_front() {
            self.visible = batch;
            self.stats.batches_delivered += 1;
        }
    }

    /// Picks the most promising *remote* domain for a probe demanding
    /// `set`, judged purely from installed summaries plus the static
    /// topology: domains whose worker range contains no feasible machine
    /// are skipped via the partitioned index view
    /// ([`FeasibilityIndex::count_feasible_in_range`]), and the survivors
    /// are ranked by visible idle workers, then lighter queue pressure,
    /// then domain id (fully deterministic).
    pub fn best_remote_domain(
        &self,
        home: usize,
        set: &ConstraintSet,
        feasibility: &FeasibilityIndex,
    ) -> Option<usize> {
        let mut best: Option<(usize, usize, usize)> = None; // (idle, queued, d)
        for d in 0..self.domains() {
            if d == home {
                continue;
            }
            let (base, len) = self.ranges[d];
            if len == 0 || feasibility.count_feasible_in_range(set, base, base + len) == 0 {
                continue;
            }
            let s = &self.visible[d];
            let better = match best {
                None => true,
                Some((idle, queued, _)) => {
                    s.idle_workers > idle || (s.idle_workers == idle && s.queued_probes < queued)
                }
            };
            if better {
                best = Some((s.idle_workers, s.queued_probes, d));
            }
        }
        best.map(|(_, _, d)| d)
    }

    /// Sum of a per-kind field over every installed summary — the
    /// eventually-consistent cluster-wide view a federated monitor reads.
    pub fn visible_demand(&self, kind: ConstraintKind) -> u64 {
        self.visible.iter().map(|s| s.demand[kind.index()]).sum()
    }

    /// Cluster-wide idle supply of `kind` under the stale view.
    pub fn visible_idle_supply(&self, kind: ConstraintKind) -> u64 {
        self.visible
            .iter()
            .map(|s| s.idle_supply[kind.index()])
            .sum()
    }

    /// Cluster-wide queued probes under the stale view.
    pub fn visible_queued_probes(&self) -> usize {
        self.visible.iter().map(|s| s.queued_probes).sum()
    }

    /// Cluster-wide constrained queued probes under the stale view.
    pub fn visible_constrained_probes(&self) -> usize {
        self.visible.iter().map(|s| s.constrained_probes).sum()
    }

    /// Cluster-wide idle workers under the stale view.
    pub fn visible_idle_workers(&self) -> usize {
        self.visible.iter().map(|s| s.idle_workers).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn cfg(k: usize, staleness_us: u64) -> FederationConfig {
        FederationConfig::sharded(k, SimDuration(staleness_us))
    }

    #[test]
    fn ranges_tile_the_cluster_and_domain_lookup_agrees() {
        for (workers, k) in [(10, 4), (100, 16), (7, 3), (5, 8), (1, 1)] {
            let fed = FederationState::new(cfg(k, 0), workers);
            let mut covered = 0;
            for (d, &(base, len)) in fed.ranges().iter().enumerate() {
                assert_eq!(base, covered, "{workers}w/{k}d");
                covered += len;
                for w in base..base + len {
                    assert_eq!(fed.domain_of_worker(w), d, "worker {w} of {workers}/{k}");
                }
            }
            assert_eq!(covered, workers);
        }
    }

    #[test]
    fn jobs_round_robin_over_domains() {
        let fed = FederationState::new(cfg(4, 0), 16);
        assert_eq!(fed.domain_of_job(0), 0);
        assert_eq!(fed.domain_of_job(5), 1);
        assert_eq!(fed.domain_of_job(7), 3);
    }

    #[test]
    fn zero_staleness_installs_at_publish() {
        let mut fed = FederationState::new(cfg(2, 0), 8);
        let ledger = CrvLedger::new(8, fed.ranges());
        assert!(!fed.publish(SimTime(100), &ledger));
        assert_eq!(fed.visible(0).published_at, 100);
        assert_eq!(fed.visible(0).idle_workers, 4);
        assert_eq!(fed.stats.gossip_rounds, 1);
        assert_eq!(fed.stats.batches_delivered, 1);
    }

    #[test]
    fn nonzero_staleness_waits_for_delivery() {
        let mut fed = FederationState::new(cfg(2, 500), 8);
        let ledger = CrvLedger::new(8, fed.ranges());
        assert!(fed.publish(SimTime(100), &ledger));
        // Still the default (empty) view until delivery.
        assert_eq!(fed.visible(1).published_at, 0);
        assert_eq!(fed.visible(1).idle_workers, 0);
        fed.deliver();
        assert_eq!(fed.visible(1).published_at, 100);
        assert_eq!(fed.visible(1).idle_workers, 4);
        assert_eq!(fed.stats.batches_delivered, 1);
    }

    #[test]
    fn visible_aggregates_sum_over_domains() {
        let mut fed = FederationState::new(cfg(4, 0), 12);
        fed.publish(SimTime(1), &CrvLedger::new(12, fed.ranges()));
        assert_eq!(fed.visible_idle_workers(), 12);
        assert_eq!(fed.visible_queued_probes(), 0);
    }
}
