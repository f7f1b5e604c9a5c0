//! Observability runner: one run with the event trace and/or hot-path
//! profile surfaced.
//!
//! ```text
//! cargo run --release -p phoenix-bench --bin observe -- \
//!     --trace yahoo --scheduler phoenix --scale smoke \
//!     --trace-out /tmp/phoenix.jsonl --profile
//! ```
//!
//! `--trace-out <path>` writes one JSON object per line (see the EXPERIMENTS
//! schema section): placement choices, CRV reorders/insertions, starvation
//! suppressions, steals, migrations, crash/recover strikes, and per-heartbeat
//! monitor snapshots. `--profile` prints the wall-clock table of the engine
//! hot paths (dispatch, heartbeat refresh, reorder, steal). `--audit` runs
//! the invariant auditor online (conservation, slot booking, placement
//! feasibility, CRV ledger exactness, starvation slack) and prints its
//! report. None of the flags change the simulated behaviour: the run's
//! digest matches the same spec without them.

use phoenix_bench::{run_spec, ObserveArgs, RunSpec, Scale, SchedulerKind};
use phoenix_traces::TraceProfile;

fn flag_value(name: &str) -> Option<String> {
    std::env::args().skip_while(|a| a != name).nth(1)
}

fn main() {
    let scale = Scale::from_args();
    let observe = ObserveArgs::from_args();
    let trace_name = flag_value("--trace").unwrap_or_else(|| "yahoo".to_string());
    let profile = TraceProfile::by_name(&trace_name).expect("known trace");
    let sched_name = flag_value("--scheduler").unwrap_or_else(|| "phoenix".to_string());
    let kind = SchedulerKind::by_name(&sched_name).expect("known scheduler");
    let nodes = scale.nodes_for(&profile);
    let seed = scale.seed_list()[0];
    println!(
        "== observe ({}, {}, {} nodes, target util 0.9, {} jobs, seed {}) ==",
        kind.name(),
        profile.name,
        nodes,
        scale.jobs,
        seed
    );
    let mut spec = RunSpec::new(profile, kind).with_seed(seed);
    spec.nodes = nodes;
    spec.gen_nodes = nodes;
    spec.gen_util = 0.9;
    spec.jobs = scale.jobs;
    spec.faults = scale.faults;
    spec.trace_out = observe.trace_out.clone();
    spec.profile_hot_paths = observe.profile;
    spec.audit = observe.audit;
    let result = run_spec(&spec);
    println!("{result}");
    println!("digest: {:016x}", result.digest());
    if let Some(path) = &observe.trace_out {
        println!("trace written to {}", path.display());
    }
    if let Some(report) = &result.profile {
        println!("\nhot-path profile (wall clock):\n{report}");
    }
    if let Some(report) = &result.audit {
        println!("\ninvariant audit:\n{report}");
        if !report.is_clean() {
            std::process::exit(1);
        }
    }
}
