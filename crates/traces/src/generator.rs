//! Trace generation: turning a [`TraceProfile`] into a concrete [`Trace`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use phoenix_constraints::{
    weighted_pick, AttributeVector, ConstraintSet, FeasibilityIndex, MachinePopulation,
};

use crate::job::{Job, JobId, Trace};
use crate::profile::TraceProfile;
use crate::ArrivalProcess;

/// Size of the reference machine sample used to calibrate synthesized
/// constraint sets against the profile's population mix.
const REFERENCE_POPULATION: usize = 2_000;

/// Resampling attempts before giving up and keeping the most satisfiable
/// candidate seen.
const SYNTHESIS_ATTEMPTS: usize = 16;

/// Deterministic trace generator.
///
/// The generator is seeded; the same `(profile, seed, scale)` triple always
/// yields the same trace. Offered load is controlled by choosing the mean
/// job-arrival rate so that
///
/// ```text
/// utilization ≈ arrival_rate × mean_job_work / nodes
/// ```
///
/// matches the requested target for the requested cluster size — the same
/// way the paper sweeps utilization by varying the node count against a
/// fixed workload.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: TraceProfile,
    seed: u64,
}

impl TraceGenerator {
    /// Creates a generator for a profile with a seed.
    pub fn new(profile: TraceProfile, seed: u64) -> Self {
        TraceGenerator { profile, seed }
    }

    /// The profile being generated.
    pub fn profile(&self) -> &TraceProfile {
        &self.profile
    }

    /// Generates `num_jobs` jobs whose offered load on a cluster of
    /// `nodes` workers is approximately `target_utilization`
    /// (in `(0, 1)`, busy-slot fraction).
    ///
    /// # Panics
    ///
    /// Panics if `target_utilization` is not in `(0, 1]` or `nodes` is 0.
    pub fn generate(&self, num_jobs: usize, nodes: usize, target_utilization: f64) -> Trace {
        assert!(nodes > 0, "cluster must have at least one node");
        assert!(
            target_utilization > 0.0 && target_utilization <= 1.0,
            "target utilization must be in (0, 1]"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mean_work = self.profile.mean_job_work_s();
        let arrival_rate = target_utilization * nodes as f64 / mean_work;
        let mut arrivals = ArrivalProcess::new(arrival_rate, self.profile.burst);
        let boost = self.constrained_boost();
        let reference = FeasibilityIndex::new(self.reference_sample());

        // Zipf(1.1) user popularity: a few heavy users, a long tail.
        let user_table: Vec<(u32, f64)> = (0..self.profile.num_users.max(1))
            .map(|u| (u, 1.0 / f64::from(u + 1).powf(1.1)))
            .collect();

        let mut jobs = Vec::with_capacity(num_jobs);
        for i in 0..num_jobs {
            let arrival_s = arrivals.next_arrival(&mut rng);
            let user = weighted_pick(&user_table, &mut rng);
            jobs.push(self.generate_job(
                JobId(i as u32),
                arrival_s,
                boost,
                &reference,
                user,
                &mut rng,
            ));
        }
        Trace::new(self.profile.name, jobs)
    }

    /// The reference machine sample synthesized constraint sets are
    /// calibrated against: 2,000 machines (`REFERENCE_POPULATION`) of the
    /// profile's population mix. A fixed derived seed keeps trace
    /// generation independent of cluster generation.
    pub fn reference_sample(&self) -> Vec<AttributeVector> {
        let mut ref_rng = StdRng::seed_from_u64(self.seed ^ 0xC0FF_EE00);
        MachinePopulation::generate(
            self.profile.population.clone(),
            REFERENCE_POPULATION,
            &mut ref_rng,
        )
        .into_machines()
    }

    /// Synthesizes a constraint set whose supply on the reference
    /// population meets the profile's `min_class_supply` floor, resampling
    /// up to [`SYNTHESIS_ATTEMPTS`] times and keeping the most satisfiable
    /// candidate otherwise.
    ///
    /// Supply is an uncached index count: a long trace draws tens of
    /// thousands of distinct candidate sets, none worth memoizing.
    fn synthesize_calibrated<R: Rng + ?Sized>(
        &self,
        reference: &FeasibilityIndex,
        max_count: usize,
        rng: &mut R,
    ) -> ConstraintSet {
        let mut best: Option<(f64, ConstraintSet)> = None;
        for _ in 0..SYNTHESIS_ATTEMPTS {
            let set = self
                .profile
                .constraint_model
                .synthesize_set_capped(rng, max_count);
            let supply = reference.feasible_fraction(&set);
            if supply >= self.profile.min_class_supply {
                return set;
            }
            match &best {
                Some((s, _)) if *s >= supply => {}
                _ => best = Some((supply, set)),
            }
        }
        best.expect("at least one attempt").1
    }

    /// Compensation factor keeping the *task-level* constrained fraction at
    /// the model's target even though long jobs are damped: with `w_s`/`w_l`
    /// the short/long task shares and `d` the damping,
    /// `boost = 1 / (w_s + w_l·d)`.
    fn constrained_boost(&self) -> f64 {
        let p = &self.profile;
        let mean_tasks = |table: &phoenix_constraints::Weighted<u32>| -> f64 {
            let total: f64 = table.iter().map(|(_, w)| *w).sum();
            table
                .iter()
                .map(|(n, w)| f64::from(*n) * w / total)
                .sum::<f64>()
        };
        let short_tasks = p.short_job_fraction * mean_tasks(&p.short_tasks_per_job);
        let long_tasks = (1.0 - p.short_job_fraction) * mean_tasks(&p.long_tasks_per_job);
        let total = short_tasks + long_tasks;
        if total <= 0.0 {
            return 1.0;
        }
        let w_s = short_tasks / total;
        let w_l = long_tasks / total;
        1.0 / (w_s + w_l * p.long_constrained_damping)
    }

    fn generate_job<R: Rng + ?Sized>(
        &self,
        id: JobId,
        arrival_s: f64,
        boost: f64,
        reference: &FeasibilityIndex,
        user: u32,
        rng: &mut R,
    ) -> Job {
        let p = &self.profile;
        let short = rng.random::<f64>() < p.short_job_fraction;
        let (tasks_table, duration) = if short {
            (&p.short_tasks_per_job, p.short_task_duration)
        } else {
            (&p.long_tasks_per_job, p.long_task_duration)
        };
        let num_tasks = weighted_pick(tasks_table, rng).max(1);
        // All tasks of a job share one duration scale (they run the same
        // code); per-task jitter is mild. This matches the Eagle simulator,
        // where a job's tasks have similar runtimes.
        let base = duration.sample(rng);
        let task_durations_s: Vec<f64> = (0..num_tasks)
            .map(|_| {
                let jitter = 0.9 + 0.2 * rng.random::<f64>();
                (base * jitter).clamp(duration.min, duration.max)
            })
            .collect();
        let estimated = task_durations_s.iter().sum::<f64>() / task_durations_s.len() as f64;
        // Domain-aware profiles tilt the acceptance threshold, never the
        // draw itself, so an unskewed profile is byte-identical.
        let tilt = p.domain_tilt(id.0);
        let base_fraction = (p.constraint_model.constrained_fraction * boost * tilt).min(1.0);
        let constraints = if short {
            if rng.random::<f64>() < base_fraction {
                self.synthesize_calibrated(reference, usize::MAX, rng)
            } else {
                ConstraintSet::unconstrained()
            }
        } else {
            let fraction = base_fraction * p.long_constrained_damping;
            if rng.random::<f64>() < fraction {
                self.synthesize_calibrated(reference, p.long_constraint_cap, rng)
            } else {
                ConstraintSet::unconstrained()
            }
        };
        Job {
            id,
            arrival_s,
            task_durations_s,
            estimated_task_duration_s: estimated,
            constraints,
            short,
            user,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::TraceProfile;

    #[test]
    fn generation_is_deterministic() {
        let g = TraceGenerator::new(TraceProfile::yahoo(), 7);
        let a = g.generate(500, 100, 0.8);
        let b = g.generate(500, 100, 0.8);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = TraceGenerator::new(TraceProfile::yahoo(), 1).generate(100, 100, 0.8);
        let b = TraceGenerator::new(TraceProfile::yahoo(), 2).generate(100, 100, 0.8);
        let same = a
            .iter()
            .zip(b.iter())
            .all(|(x, y)| x.arrival_s == y.arrival_s);
        assert!(!same);
    }

    #[test]
    fn offered_load_tracks_target() {
        let g = TraceGenerator::new(TraceProfile::google(), 3);
        let nodes = 400;
        let trace = g.generate(8_000, nodes, 0.7);
        let offered = trace.total_work_s() / (trace.horizon_s() * nodes as f64);
        // Bursty arrivals + heavy-tailed work make this noisy; it must land
        // in the right regime.
        assert!(
            (0.3..=1.4).contains(&offered),
            "offered load {offered} far from 0.7"
        );
    }

    #[test]
    fn short_fraction_matches_profile() {
        let g = TraceGenerator::new(TraceProfile::cloudera(), 5);
        let trace = g.generate(10_000, 1_000, 0.5);
        let short = trace.iter().filter(|j| j.short).count() as f64 / trace.len() as f64;
        assert!((short - 0.95).abs() < 0.01, "short fraction {short}");
    }

    #[test]
    fn constrained_task_fraction_matches_table_iii() {
        // The published statistic is task-level (Table III: ~49-51 % of
        // tasks constrained); the generator compensates the long-job
        // damping so the blended task fraction hits the model target.
        let g = TraceGenerator::new(TraceProfile::google(), 9);
        let trace = g.generate(10_000, 1_000, 0.5);
        let constrained_tasks: usize = trace
            .iter()
            .filter(|j| j.is_constrained())
            .map(|j| j.num_tasks())
            .sum();
        let fraction = constrained_tasks as f64 / trace.num_tasks() as f64;
        assert!(
            (fraction - 0.513).abs() < 0.04,
            "constrained task fraction {fraction}"
        );
    }

    #[test]
    fn durations_respect_class_supports() {
        let profile = TraceProfile::yahoo();
        let cutoff = profile.short_cutoff_s();
        let g = TraceGenerator::new(profile, 11);
        let trace = g.generate(2_000, 500, 0.6);
        for job in &trace {
            for &d in &job.task_durations_s {
                if job.short {
                    assert!(d <= cutoff, "short task {d} above cutoff");
                } else {
                    assert!(d >= cutoff, "long task {d} below cutoff");
                }
            }
            // Estimates classify identically to ground truth.
            assert_eq!(job.estimated_task_duration_s <= cutoff, job.short);
        }
    }

    #[test]
    fn unskewed_domain_profile_is_byte_identical() {
        let plain = TraceGenerator::new(TraceProfile::yahoo(), 7).generate(400, 100, 0.8);
        let aware = TraceGenerator::new(TraceProfile::yahoo().with_domains(8, 0.0), 7)
            .generate(400, 100, 0.8);
        assert_eq!(plain.len(), aware.len());
        for (a, b) in plain.iter().zip(aware.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn domain_skew_tilts_constrained_fraction_across_domains() {
        let k = 2;
        let g = TraceGenerator::new(TraceProfile::google().with_domains(k, 0.9), 13);
        let trace = g.generate(8_000, 1_000, 0.5);
        let fraction_of = |domain: usize| {
            let jobs: Vec<_> = trace
                .iter()
                .filter(|j| j.id.0 as usize % k == domain)
                .collect();
            jobs.iter().filter(|j| j.is_constrained()).count() as f64 / jobs.len() as f64
        };
        let light = fraction_of(0);
        let heavy = fraction_of(1);
        assert!(
            heavy > light + 0.2,
            "skew must separate domains: light {light}, heavy {heavy}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = TraceGenerator::new(TraceProfile::yahoo(), 1).generate(10, 0, 0.5);
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn bad_utilization_rejected() {
        let _ = TraceGenerator::new(TraceProfile::yahoo(), 1).generate(10, 10, 1.5);
    }
}
