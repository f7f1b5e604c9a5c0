//! Pollaczek–Khinchine M/G/1 waiting-time estimation (Equation 1).
//!
//! Phoenix estimates each worker queue's expected wait
//!
//! ```text
//! E[W] = ρ/(1−ρ) · E[S²] / (2·E[S])
//! ```
//!
//! where `ρ = λ·E[S]` is the offered load, `λ` the observed probe arrival
//! rate and `S` the observed service times (§IV-A: "μ ← Avg(last serviced
//! tasks); λ ← Avg(inter arrival rate)"). Statistics come from sliding
//! windows of the most recent observations per worker.

use std::cell::Cell;

use phoenix_sim::{SimDuration, SimTime, WorkerId};

/// Window length: how many recent observations feed each estimate.
const WINDOW: usize = 16;

/// A bounded window of recent samples with mean / second-moment queries.
#[derive(Debug, Clone)]
struct SampleWindow {
    samples: [f64; WINDOW],
    len: usize,
    next: usize,
}

impl SampleWindow {
    fn new() -> Self {
        SampleWindow {
            samples: [0.0; WINDOW],
            len: 0,
            next: 0,
        }
    }

    fn push(&mut self, x: f64) {
        self.samples[self.next] = x;
        self.next = (self.next + 1) % WINDOW;
        self.len = (self.len + 1).min(WINDOW);
    }

    fn mean(&self) -> Option<f64> {
        if self.len == 0 {
            return None;
        }
        Some(self.samples[..self.len].iter().sum::<f64>() / self.len as f64)
    }

    fn second_moment(&self) -> Option<f64> {
        if self.len == 0 {
            return None;
        }
        Some(self.samples[..self.len].iter().map(|x| x * x).sum::<f64>() / self.len as f64)
    }
}

#[derive(Debug, Clone)]
struct WorkerStats {
    last_arrival: Option<SimTime>,
    /// Arrivals observed *at* `last_arrival`'s instant: multi-task jobs
    /// probe in batches, and all probes of a batch land at the same
    /// simulated time.
    batch: u32,
    inter_arrivals: SampleWindow,
    services: SampleWindow,
    /// Memoized [`WaitEstimator::expected_wait`] result, cleared whenever a
    /// window gains a sample. The scheduler scores the same worker many
    /// times between observations (every migration candidate ranks up to
    /// six alternatives), and the windows only change on probe arrival /
    /// service completion. The memo stores the *computed* value, so a hit
    /// is bit-identical to a recompute.
    wait_memo: Cell<Option<Option<SimDuration>>>,
}

impl WorkerStats {
    fn new() -> Self {
        WorkerStats {
            last_arrival: None,
            batch: 0,
            inter_arrivals: SampleWindow::new(),
            services: SampleWindow::new(),
            wait_memo: Cell::new(None),
        }
    }

    /// `ρ = λ·E[S]` clamped to `rho_cap`; `None` until both windows have
    /// data.
    fn rho(&self, rho_cap: f64) -> Option<f64> {
        let mean_gap = self.inter_arrivals.mean()?;
        let mean_service = self.services.mean()?;
        if mean_gap <= 0.0 {
            return Some(rho_cap);
        }
        Some((mean_service / mean_gap).min(rho_cap))
    }

    /// Equation 1 from the windows (the memo stores its result).
    fn compute_expected_wait(&self, rho_cap: f64) -> Option<SimDuration> {
        let rho = self.rho(rho_cap)?;
        let es = self.services.mean()?;
        let es2 = self.services.second_moment()?;
        if es <= 0.0 {
            return Some(SimDuration::ZERO);
        }
        let wait = rho / (1.0 - rho) * es2 / (2.0 * es);
        Some(SimDuration::from_secs_f64(wait))
    }
}

/// Marks a worker never observed in [`WaitEstimator::slots`].
const UNOBSERVED: u32 = u32::MAX;

/// Per-worker P-K waiting-time estimator.
///
/// Memory follows use, not cluster size: each worker costs one `u32` slot,
/// and its two sample windows (328 bytes) are allocated on its first
/// observed arrival or service. A worker never observed reads `None`, as
/// it would with empty windows. At 100,000 workers where most never
/// receive a probe, that is 0.4 MB of slots instead of 32.8 MB of windows.
#[derive(Debug, Clone)]
pub struct WaitEstimator {
    /// Per worker: index into `stats`, or [`UNOBSERVED`].
    slots: Vec<u32>,
    /// Statistics of the observed workers, in order of first observation.
    stats: Vec<WorkerStats>,
    /// Load cap: ρ is clamped below 1 so the estimate stays finite; queues
    /// observed above saturation simply report a very large wait.
    rho_cap: f64,
}

impl WaitEstimator {
    /// Creates an estimator for `n` workers.
    pub fn new(n: usize) -> Self {
        WaitEstimator {
            slots: vec![UNOBSERVED; n],
            stats: Vec::new(),
            rho_cap: 0.999,
        }
    }

    /// Number of workers tracked.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the estimator tracks zero workers.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The statistics of `worker`, or `None` if it was never observed.
    fn stats(&self, worker: WorkerId) -> Option<&WorkerStats> {
        match self.slots[worker.index()] {
            UNOBSERVED => None,
            slot => Some(&self.stats[slot as usize]),
        }
    }

    /// The statistics of `worker`, allocated on its first observation.
    fn stats_mut(&mut self, worker: WorkerId) -> &mut WorkerStats {
        let slot = &mut self.slots[worker.index()];
        if *slot == UNOBSERVED {
            *slot = u32::try_from(self.stats.len()).expect("fewer than u32::MAX workers");
            self.stats.push(WorkerStats::new());
        }
        &mut self.stats[*slot as usize]
    }

    /// Records a probe/task arrival at `worker`.
    ///
    /// Same-timestamp arrivals are coalesced into one batch: a k-probe
    /// batch after a gap of `T` contributes a single inter-arrival sample
    /// of `T/k`, so λ tracks the per-probe arrival rate. Recording each
    /// batch member as its own arrival (the historical behaviour) pushed a
    /// `0.0` gap per extra probe, dragging `mean_gap` toward zero and
    /// pinning ρ at the cap for any worker that ever received a batch.
    pub fn record_arrival(&mut self, worker: WorkerId, now: SimTime) {
        let s = self.stats_mut(worker);
        match s.last_arrival {
            None => {
                s.last_arrival = Some(now);
                s.batch = 1;
            }
            Some(last) if now == last => s.batch += 1,
            Some(last) => {
                s.inter_arrivals
                    .push(now.since(last).as_secs_f64() / f64::from(s.batch.max(1)));
                s.last_arrival = Some(now);
                s.batch = 1;
                s.wait_memo.set(None);
            }
        }
    }

    /// Records a completed service of `duration` at `worker`.
    pub fn record_service(&mut self, worker: WorkerId, duration: SimDuration) {
        let s = self.stats_mut(worker);
        s.services.push(duration.as_secs_f64());
        s.wait_memo.set(None);
    }

    /// The offered load `ρ = λ·E[S]` observed at `worker`, clamped to the
    /// estimator's cap. `None` until both windows have data.
    pub fn rho(&self, worker: WorkerId) -> Option<f64> {
        self.stats(worker)?.rho(self.rho_cap)
    }

    /// The P-K expected waiting time at `worker` (Equation 1), or `None`
    /// until enough observations exist.
    pub fn expected_wait(&self, worker: WorkerId) -> Option<SimDuration> {
        let s = self.stats(worker)?;
        if let Some(memo) = s.wait_memo.get() {
            return memo;
        }
        let wait = s.compute_expected_wait(self.rho_cap);
        s.wait_memo.set(Some(wait));
        wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(est: &mut WaitEstimator, gap_s: f64, service_s: f64, n: usize) {
        let w = WorkerId(0);
        let mut t = SimTime::ZERO;
        for _ in 0..n {
            est.record_arrival(w, t);
            est.record_service(w, SimDuration::from_secs_f64(service_s));
            t += SimDuration::from_secs_f64(gap_s);
        }
    }

    #[test]
    fn no_data_yields_none() {
        let est = WaitEstimator::new(2);
        assert!(est.expected_wait(WorkerId(0)).is_none());
        assert!(est.rho(WorkerId(1)).is_none());
    }

    #[test]
    fn deterministic_arrivals_match_md1_closed_form() {
        // Deterministic service S, deterministic gaps: E[S²] = S², so
        // E[W] = ρ/(1-ρ) · S/2.
        let mut est = WaitEstimator::new(1);
        feed(&mut est, 2.0, 1.0, 32);
        let rho = est.rho(WorkerId(0)).unwrap();
        assert!((rho - 0.5).abs() < 1e-9);
        let w = est.expected_wait(WorkerId(0)).unwrap().as_secs_f64();
        assert!((w - 0.5).abs() < 1e-6, "E[W] {w} != 0.5");
    }

    #[test]
    fn heavier_load_waits_longer() {
        let mut light = WaitEstimator::new(1);
        feed(&mut light, 4.0, 1.0, 32);
        let mut heavy = WaitEstimator::new(1);
        feed(&mut heavy, 1.25, 1.0, 32);
        let wl = light.expected_wait(WorkerId(0)).unwrap();
        let wh = heavy.expected_wait(WorkerId(0)).unwrap();
        assert!(wh > wl, "heavier load must wait longer: {wh} vs {wl}");
    }

    #[test]
    fn saturation_is_capped_not_infinite() {
        let mut est = WaitEstimator::new(1);
        // Arrivals faster than service: ρ would exceed 1.
        feed(&mut est, 0.5, 2.0, 32);
        let rho = est.rho(WorkerId(0)).unwrap();
        assert!(rho < 1.0);
        let w = est.expected_wait(WorkerId(0)).unwrap();
        assert!(w.as_secs_f64() > 100.0, "saturated queue reports huge wait");
        assert!(w.as_secs_f64().is_finite());
    }

    #[test]
    fn variance_increases_wait_at_equal_load() {
        // Same mean service and load, but bimodal service times have a
        // larger second moment → longer P-K wait.
        let w = WorkerId(0);
        let mut uniform = WaitEstimator::new(1);
        feed(&mut uniform, 2.0, 1.0, 32);
        let mut bimodal = WaitEstimator::new(1);
        let mut t = SimTime::ZERO;
        for i in 0..32 {
            bimodal.record_arrival(w, t);
            let s = if i % 2 == 0 { 0.1 } else { 1.9 };
            bimodal.record_service(w, SimDuration::from_secs_f64(s));
            t += SimDuration::from_secs_f64(2.0);
        }
        let wu = uniform.expected_wait(w).unwrap();
        let wb = bimodal.expected_wait(w).unwrap();
        assert!(wb > wu, "variance must increase wait: {wb} vs {wu}");
    }

    #[test]
    fn batched_arrivals_measure_the_batch_rate() {
        // 4-probe batches every 8 s with 1 s services: per-probe λ = 0.5/s,
        // so ρ = E[S]·λ = 0.5 — not the saturation cap the old per-probe
        // 0.0-gap samples produced.
        let w = WorkerId(0);
        let mut est = WaitEstimator::new(1);
        let mut t = SimTime::ZERO;
        for _ in 0..16 {
            for _ in 0..4 {
                est.record_arrival(w, t);
                est.record_service(w, SimDuration::from_secs_f64(1.0));
            }
            t += SimDuration::from_secs_f64(8.0);
        }
        let rho = est.rho(w).unwrap();
        assert!(
            (rho - 0.5).abs() < 1e-9,
            "rho {rho} must match the batch arrival rate, not the cap"
        );
        // And the wait stays finite/moderate: ρ/(1-ρ)·E[S²]/(2E[S]) = 0.5.
        let wait = est.expected_wait(w).unwrap().as_secs_f64();
        assert!((wait - 0.5).abs() < 1e-6, "E[W] {wait}");
    }

    #[test]
    fn single_arrivals_are_unaffected_by_batch_coalescing() {
        // Distinct-timestamp arrivals must behave exactly as before the
        // batch fix: gap/1 per arrival.
        let mut est = WaitEstimator::new(1);
        feed(&mut est, 2.0, 1.0, 32);
        assert!((est.rho(WorkerId(0)).unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn window_is_sliding() {
        let mut est = WaitEstimator::new(1);
        // Old slow services scroll out of the window.
        feed(&mut est, 2.0, 10.0, WINDOW);
        feed(&mut est, 2.0, 0.1, WINDOW);
        let rho = est.rho(WorkerId(0)).unwrap();
        assert!(rho < 0.1, "old samples must be forgotten, rho {rho}");
    }
}

#[cfg(test)]
mod estimator_property_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// E[W] is monotone in offered load for fixed service-time shape.
        #[test]
        fn wait_is_monotone_in_load(
            service_s in 0.5f64..50.0,
            gap_fast in 0.1f64..0.9,
        ) {
            // gap_fast scales the service time: rho = service/gap.
            let w = WorkerId(0);
            let feed = |gap: f64| {
                let mut est = WaitEstimator::new(1);
                let mut t = SimTime::ZERO;
                for _ in 0..32 {
                    est.record_arrival(w, t);
                    est.record_service(w, SimDuration::from_secs_f64(service_s));
                    t += SimDuration::from_secs_f64(gap);
                }
                est.expected_wait(w).expect("fed").as_secs_f64()
            };
            // Light load: gap = service / 0.3; heavier: gap = service / gap_fast'
            let light = feed(service_s / 0.3);
            let heavy = feed(service_s / (0.3 + gap_fast * 0.6));
            prop_assert!(heavy >= light, "heavy {heavy} < light {light}");
        }

        /// The estimate matches the closed-form P-K value for deterministic
        /// arrivals and services.
        #[test]
        fn matches_closed_form_pk(
            service_s in 0.5f64..20.0,
            rho in 0.05f64..0.9,
        ) {
            let w = WorkerId(0);
            let gap = service_s / rho;
            let mut est = WaitEstimator::new(1);
            let mut t = SimTime::ZERO;
            for _ in 0..32 {
                est.record_arrival(w, t);
                est.record_service(w, SimDuration::from_secs_f64(service_s));
                t += SimDuration::from_secs_f64(gap);
            }
            let measured = est.expected_wait(w).expect("fed").as_secs_f64();
            // Deterministic S: E[W] = rho/(1-rho) * S/2.
            let theory = rho / (1.0 - rho) * service_s / 2.0;
            prop_assert!(
                (measured - theory).abs() <= theory * 0.01 + 1e-6,
                "measured {measured} vs theory {theory}"
            );
        }
    }
}

/// Equivalence oracle for the lazily allocated estimator: the dense
/// layout it replaced (one full [`WorkerStats`] per worker, allocated up
/// front) kept as the reference, fed the same random observation streams.
#[cfg(test)]
mod estimator_oracle {
    use super::*;
    use proptest::prelude::*;

    /// The dense per-worker estimator, with its original arithmetic.
    struct DenseWaitEstimator {
        workers: Vec<WorkerStats>,
        rho_cap: f64,
    }

    impl DenseWaitEstimator {
        fn new(n: usize) -> Self {
            DenseWaitEstimator {
                workers: (0..n).map(|_| WorkerStats::new()).collect(),
                rho_cap: 0.999,
            }
        }

        fn record_arrival(&mut self, worker: WorkerId, now: SimTime) {
            let s = &mut self.workers[worker.index()];
            match s.last_arrival {
                None => {
                    s.last_arrival = Some(now);
                    s.batch = 1;
                }
                Some(last) if now == last => s.batch += 1,
                Some(last) => {
                    s.inter_arrivals
                        .push(now.since(last).as_secs_f64() / f64::from(s.batch.max(1)));
                    s.last_arrival = Some(now);
                    s.batch = 1;
                    s.wait_memo.set(None);
                }
            }
        }

        fn record_service(&mut self, worker: WorkerId, duration: SimDuration) {
            let s = &mut self.workers[worker.index()];
            s.services.push(duration.as_secs_f64());
            s.wait_memo.set(None);
        }

        fn rho(&self, worker: WorkerId) -> Option<f64> {
            let s = &self.workers[worker.index()];
            let mean_gap = s.inter_arrivals.mean()?;
            let mean_service = s.services.mean()?;
            if mean_gap <= 0.0 {
                return Some(self.rho_cap);
            }
            Some((mean_service / mean_gap).min(self.rho_cap))
        }

        fn expected_wait(&self, worker: WorkerId) -> Option<SimDuration> {
            let s = &self.workers[worker.index()];
            if let Some(memo) = s.wait_memo.get() {
                return memo;
            }
            let wait = self.compute_expected_wait(worker);
            s.wait_memo.set(Some(wait));
            wait
        }

        fn compute_expected_wait(&self, worker: WorkerId) -> Option<SimDuration> {
            let s = &self.workers[worker.index()];
            let rho = self.rho(worker)?;
            let es = s.services.mean()?;
            let es2 = s.services.second_moment()?;
            if es <= 0.0 {
                return Some(SimDuration::ZERO);
            }
            let wait = rho / (1.0 - rho) * es2 / (2.0 * es);
            Some(SimDuration::from_secs_f64(wait))
        }
    }

    /// Asserts both estimators answer identically for every worker,
    /// comparing `ρ` by `to_bits()` and the wait to the microsecond.
    fn assert_agree(lazy: &WaitEstimator, dense: &DenseWaitEstimator, n: usize) {
        for w in (0..n as u32).map(WorkerId) {
            assert_eq!(
                lazy.rho(w).map(f64::to_bits),
                dense.rho(w).map(f64::to_bits),
                "rho of {w}"
            );
            assert_eq!(lazy.expected_wait(w), dense.expected_wait(w), "E[W] of {w}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of arrivals (same-instant batches included,
        /// since the clock often does not advance), services and queries
        /// over many workers. Only the low `hot` worker ids are ever
        /// observed, so most workers stay unobserved and must read `None`.
        #[test]
        fn lazy_estimator_matches_dense_reference(
            ops in prop::collection::vec((0u8..4, 0u32..512, 0u64..3_000_000), 1..400),
            n in 1usize..512,
            hot in 1u32..64,
        ) {
            let mut lazy = WaitEstimator::new(n);
            let mut dense = DenseWaitEstimator::new(n);
            let mut now = SimTime::ZERO;
            for &(op, raw_worker, micros) in &ops {
                let w = WorkerId(raw_worker % hot.min(n as u32));
                match op {
                    // Arrival after a gap, or at the same instant (batch).
                    0 => {
                        now += SimDuration::from_micros(micros);
                        lazy.record_arrival(w, now);
                        dense.record_arrival(w, now);
                    }
                    1 => {
                        lazy.record_arrival(w, now);
                        dense.record_arrival(w, now);
                    }
                    2 => {
                        let d = SimDuration::from_micros(micros % 1_000_000);
                        lazy.record_service(w, d);
                        dense.record_service(w, d);
                    }
                    // A query between observations exercises the memo.
                    _ => {
                        prop_assert_eq!(lazy.expected_wait(w), dense.expected_wait(w));
                    }
                }
            }
            assert_agree(&lazy, &dense, n);
            // Unobserved workers hold no windows.
            prop_assert!(lazy.stats.len() <= hot as usize);
            prop_assert_eq!(lazy.len(), n);
        }
    }

    #[test]
    fn unobserved_workers_allocate_nothing() {
        let mut est = WaitEstimator::new(100_000);
        assert!(est.stats.is_empty());
        assert!(est.rho(WorkerId(99_999)).is_none());
        assert!(est.expected_wait(WorkerId(0)).is_none());
        est.record_service(WorkerId(7), SimDuration::from_secs_f64(1.0));
        est.record_arrival(WorkerId(7), SimTime::ZERO);
        est.record_arrival(WorkerId(42), SimTime::ZERO);
        assert_eq!(est.stats.len(), 2);
        assert!(est.expected_wait(WorkerId(7)).is_none());
    }
}
