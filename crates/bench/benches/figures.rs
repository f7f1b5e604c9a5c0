//! Criterion benches regenerating each paper table/figure at smoke scale.
//!
//! One bench per table/figure of the evaluation. Each runs a miniature
//! version of the corresponding experiment end to end (trace generation +
//! simulation + metric extraction), so `cargo bench` both times the system
//! and re-exercises every experiment pipeline. The printed paper-scale
//! numbers come from the `fig*`/`table*` binaries instead.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use phoenix_bench::{run_spec, RunSpec, Scale, SchedulerKind};
use phoenix_constraints::{
    supply_curve, ConstraintModel, ConstraintStats, MachinePopulation, PopulationProfile,
};
use phoenix_traces::{TraceGenerator, TraceProfile, TraceStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn smoke_spec(profile: TraceProfile, kind: SchedulerKind, util: f64) -> RunSpec {
    let scale = Scale::smoke();
    let nodes = scale.nodes_for(&profile).max(40);
    let mut spec = RunSpec::new(profile, kind);
    spec.nodes = nodes;
    spec.gen_nodes = nodes;
    spec.gen_util = util;
    spec.jobs = scale.jobs;
    spec
}

/// Fig. 2: queuing CDFs for Hawk-C / Eagle-C / Yaq-d on Yahoo.
fn bench_fig2(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_queueing_cdf");
    group.sample_size(10);
    for kind in [
        SchedulerKind::HawkC,
        SchedulerKind::EagleC,
        SchedulerKind::YaqD,
    ] {
        group.bench_function(kind.name(), |b| {
            let spec = smoke_spec(TraceProfile::yahoo(), kind, 0.9);
            b.iter(|| {
                let r = run_spec(black_box(&spec));
                black_box(r.job_queuing().overall().mean())
            });
        });
    }
    group.finish();
}

/// Fig. 3: constrained vs unconstrained wait time series under Eagle-C.
fn bench_fig3(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_wait_timeseries");
    group.sample_size(10);
    group.bench_function("google_eagle_c", |b| {
        let spec = smoke_spec(TraceProfile::google(), SchedulerKind::EagleC, 0.9);
        b.iter(|| {
            let r = run_spec(black_box(&spec));
            black_box(r.metrics.constrained_wait_series.bucket_means().len())
        });
    });
    group.finish();
}

/// Fig. 4: constrained/unconstrained short-job response ratio per trace.
fn bench_fig4(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_constrained_ratio");
    group.sample_size(10);
    for profile in TraceProfile::all() {
        group.bench_function(profile.name, |b| {
            let spec = smoke_spec(profile.clone(), SchedulerKind::EagleC, 0.9);
            b.iter(|| black_box(run_spec(black_box(&spec)).counters));
        });
    }
    group.finish();
}

/// Fig. 6: synthesizer demand and supply curves.
fn bench_fig6(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_supply_demand");
    group.bench_function("demand_curve_10k", |b| {
        let model = ConstraintModel::google();
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut stats = ConstraintStats::new();
            for _ in 0..10_000 {
                stats.record(&model.synthesize_set(&mut rng));
            }
            black_box(stats.demand_curve())
        });
    });
    group.bench_function("supply_curve_1k_nodes", |b| {
        let model = ConstraintModel::google();
        let mut rng = StdRng::seed_from_u64(2);
        let population =
            MachinePopulation::generate(PopulationProfile::google_like(), 1_000, &mut rng);
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            black_box(supply_curve(&model, &population, 2_000, &mut rng))
        });
    });
    group.finish();
}

/// Figs. 7/8: Phoenix vs Eagle-C (short and long jobs share the runs).
fn bench_fig7_fig8(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_fig8_phoenix_vs_eagle");
    group.sample_size(10);
    for kind in [SchedulerKind::Phoenix, SchedulerKind::EagleC] {
        group.bench_function(kind.name(), |b| {
            let spec = smoke_spec(TraceProfile::google(), kind, 0.92);
            b.iter(|| {
                let r = run_spec(black_box(&spec));
                black_box((
                    r.class_response_percentile(phoenix_metrics::JobClass::Short, 99.0),
                    r.class_response_percentile(phoenix_metrics::JobClass::Long, 99.0),
                ))
            });
        });
    }
    group.finish();
}

/// Fig. 9: queuing-delay breakdown by constraint status.
fn bench_fig9(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_queueing_breakdown");
    group.sample_size(10);
    group.bench_function("phoenix_google", |b| {
        let spec = smoke_spec(TraceProfile::google(), SchedulerKind::Phoenix, 0.92);
        b.iter(|| {
            let r = run_spec(black_box(&spec));
            black_box(
                r.job_queuing()
                    .by_status(phoenix_metrics::ConstraintStatus::Constrained)
                    .mean(),
            )
        });
    });
    group.finish();
}

/// Fig. 10: Phoenix vs Hawk-C.
fn bench_fig10(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_phoenix_vs_hawk");
    group.sample_size(10);
    group.bench_function("hawk_c_google", |b| {
        let spec = smoke_spec(TraceProfile::google(), SchedulerKind::HawkC, 0.92);
        b.iter(|| black_box(run_spec(black_box(&spec)).counters));
    });
    group.finish();
}

/// Fig. 11: Phoenix vs Sparrow-C.
fn bench_fig11(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig11_phoenix_vs_sparrow");
    group.sample_size(10);
    group.bench_function("sparrow_c_google", |b| {
        let spec = smoke_spec(TraceProfile::google(), SchedulerKind::SparrowC, 0.92);
        b.iter(|| black_box(run_spec(black_box(&spec)).counters));
    });
    group.finish();
}

/// Table II: constraint synthesis throughput.
fn bench_table2(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_constraint_synthesis");
    group.bench_function("maybe_synthesize", |b| {
        let model = ConstraintModel::google();
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| black_box(model.maybe_synthesize(&mut rng)));
    });
    group.finish();
}

/// Table III: trace generation + statistics.
fn bench_table3(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3_trace_stats");
    group.sample_size(10);
    group.bench_function("generate_and_measure_google", |b| {
        b.iter(|| {
            let trace = TraceGenerator::new(TraceProfile::google(), 1).generate(2_000, 300, 0.92);
            black_box(TraceStats::measure(&trace, 10.0))
        });
    });
    group.finish();
}

criterion_group!(
    figures,
    bench_fig2,
    bench_fig3,
    bench_fig4,
    bench_fig6,
    bench_fig7_fig8,
    bench_fig9,
    bench_fig10,
    bench_fig11,
    bench_table2,
    bench_table3,
);
criterion_main!(figures);
