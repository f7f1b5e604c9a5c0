//! Sensitivity and ablation study (§VI-C of the paper mentions the
//! heartbeat sensitivity analysis; DESIGN.md lists the rest):
//!
//! * CRV heartbeat interval: 1 s – 30 s (paper settles on 9 s).
//! * Probe ratio: 1 – 4 (paper settles on 2).
//! * Starvation slack threshold: 1 – 20 (paper settles on 5).
//! * Mechanism ablations: Phoenix without CRV reordering, without
//!   admission control, and full.

use phoenix_bench::{summarize, RunSpec, Scale, SchedulerKind};
use phoenix_constraints::{FeasibilityIndex, MachinePopulation};
use phoenix_core::{Phoenix, PhoenixConfig};
use phoenix_metrics::Table;
use phoenix_sim::{SimConfig, SimDuration, Simulation};
use phoenix_traces::{TraceGenerator, TraceProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run_with(config: PhoenixConfig, scale: &Scale, seed: u64) -> phoenix_bench::Summary {
    let profile = TraceProfile::google();
    let nodes = scale.nodes_for(&profile);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(17));
    let cluster = MachinePopulation::generate(profile.population.clone(), nodes, &mut rng);
    let trace = TraceGenerator::new(profile, seed).generate(scale.jobs, nodes, 0.92);
    let sim_config = SimConfig {
        record_task_waits: false,
        ..SimConfig::default()
    };
    let result = Simulation::new(
        sim_config,
        FeasibilityIndex::new(cluster.into_machines()),
        &trace,
        Box::new(Phoenix::new(config)),
        seed,
    )
    .run();
    summarize(&[result])
}

fn main() {
    let scale = Scale::from_args();
    let profile = TraceProfile::google();
    let cutoff = profile.short_cutoff_s();
    let seeds: Vec<u64> = scale.seed_list();

    let averaged = |config: PhoenixConfig| {
        let runs: Vec<_> = seeds
            .iter()
            .map(|&s| run_with(config.clone(), &scale, s))
            .collect();
        phoenix_bench::average_summaries(&runs)
    };

    println!("== sensitivity: CRV heartbeat interval (google, high load) ==");
    let mut t = Table::new(vec![
        "heartbeat (s)",
        "short p99 (s)",
        "crv reorders",
        "util %",
    ]);
    for hb in [1u64, 3, 9, 18, 30] {
        let mut config = PhoenixConfig::with_cutoff_s(cutoff);
        config.heartbeat = SimDuration::from_secs(hb);
        let s = averaged(config);
        t.add_row(vec![
            hb.to_string(),
            format!("{:.1}", s.short_response.p99),
            s.crv_reordered_tasks.to_string(),
            format!("{:.1}", s.utilization * 100.0),
        ]);
    }
    println!("{t}");

    println!("== sensitivity: probe ratio ==");
    let mut t = Table::new(vec!["probe ratio", "short p99 (s)", "short p50 (s)"]);
    for ratio in [1u32, 2, 3, 4] {
        let mut config = PhoenixConfig::with_cutoff_s(cutoff);
        config.baseline.probe_ratio = ratio;
        let s = averaged(config);
        t.add_row(vec![
            ratio.to_string(),
            format!("{:.1}", s.short_response.p99),
            format!("{:.1}", s.short_response.p50),
        ]);
    }
    println!("{t}");

    println!("== sensitivity: starvation slack threshold ==");
    let mut t = Table::new(vec!["slack", "short p99 (s)", "long p99 (s)"]);
    for slack in [1u32, 3, 5, 10, 20] {
        let mut config = PhoenixConfig::with_cutoff_s(cutoff);
        config.baseline.slack_threshold = slack;
        let s = averaged(config);
        t.add_row(vec![
            slack.to_string(),
            format!("{:.1}", s.short_response.p99),
            format!("{:.1}", s.long_response.p99),
        ]);
    }
    println!("{t}");

    println!("== control plane: monolithic-c per-task decision cost ==");
    let mut t = Table::new(vec![
        "decision cost (ms)",
        "short p50 (s)",
        "short p99 (s)",
        "util %",
    ]);
    for cost_ms in [1u64, 10, 100, 1_000, 5_000] {
        let runs: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let nodes = scale.nodes_for(&profile);
                let mut rng = rand::rngs::StdRng::seed_from_u64(
                    seed.wrapping_mul(0x9E37_79B9).wrapping_add(17),
                );
                let cluster =
                    MachinePopulation::generate(profile.population.clone(), nodes, &mut rng);
                let trace =
                    TraceGenerator::new(profile.clone(), seed).generate(scale.jobs, nodes, 0.92);
                let result = Simulation::new(
                    SimConfig {
                        record_task_waits: false,
                        ..SimConfig::default()
                    },
                    FeasibilityIndex::new(cluster.into_machines()),
                    &trace,
                    Box::new(phoenix_schedulers::MonolithicC::with_decision_cost(
                        phoenix_schedulers::BaselineConfig::with_cutoff_s(cutoff),
                        SimDuration::from_millis(cost_ms),
                    )),
                    seed,
                )
                .run();
                summarize(&[result])
            })
            .collect();
        let s = phoenix_bench::average_summaries(&runs);
        t.add_row(vec![
            cost_ms.to_string(),
            format!("{:.1}", s.short_response.p50),
            format!("{:.1}", s.short_response.p99),
            format!("{:.1}", s.utilization * 100.0),
        ]);
    }
    println!("{t}");
    println!(
        "note: a zero-cost central scheduler is an oracle; the distributed\n\
         designs exist because real control planes saturate — visible above\n\
         as decision cost approaches task granularity.\n"
    );

    println!("== ablations: phoenix mechanisms (vs eagle-c) ==");
    let mut t = Table::new(vec!["variant", "short p99 (s)", "constr short p99 (s)"]);
    for kind in [
        SchedulerKind::Phoenix,
        SchedulerKind::PhoenixNoCrv,
        SchedulerKind::PhoenixNoAdmission,
        SchedulerKind::EagleC,
    ] {
        let nodes = scale.nodes_for(&profile);
        let specs: Vec<RunSpec> = seeds
            .iter()
            .map(|&seed| {
                let mut spec = RunSpec::new(profile.clone(), kind).with_seed(seed);
                spec.nodes = nodes;
                spec.gen_nodes = nodes;
                spec.gen_util = 0.92;
                spec.jobs = scale.jobs;
                spec
            })
            .collect();
        let s = summarize(&phoenix_bench::run_many(&specs));
        t.add_row(vec![
            kind.name().to_string(),
            format!("{:.1}", s.short_response.p99),
            format!("{:.1}", s.constrained_short_response.p99),
        ]);
    }
    println!("{t}");
}
