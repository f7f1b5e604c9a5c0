//! Golden digests for *faulted* runs: fixed-seed fingerprints per
//! scheduler under the `reference` and `heavy` fault profiles.
//!
//! The fault-free golden snapshots (`tests/golden/*.json`) cannot see a
//! behaviour change on the crash path, because `FaultPlan::none()` never
//! schedules a crash strike. These digests pin the crash/recover/retry
//! machinery itself, so engine refactors of that path (e.g. replacing the
//! O(jobs) outstanding-work scan in `schedule_next_crash` with an
//! incrementally maintained counter) are provably behaviour-neutral.
//!
//! Re-bless after an *intentional* behaviour change with:
//!
//! ```text
//! PHOENIX_BLESS=1 cargo test --test golden_faults
//! ```

use phoenix::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;

const SEEDS: [u64; 2] = [42, 7];

fn spec(kind: SchedulerKind, seed: u64, faults: FaultPlan) -> RunSpec {
    let mut spec = RunSpec::new(TraceProfile::yahoo(), kind);
    spec.nodes = 60;
    spec.gen_nodes = 60;
    spec.jobs = 200;
    spec.gen_util = 0.7;
    spec.seed = seed;
    spec.faults = faults;
    spec
}

fn render(kind: SchedulerKind) -> String {
    let mut out = String::new();
    writeln!(out, "{{").unwrap();
    writeln!(out, "  \"scheduler\": \"{}\",", kind.name()).unwrap();
    writeln!(out, "  \"runs\": [").unwrap();
    let profiles: [(&str, FaultPlan); 2] = [
        ("reference", FaultPlan::reference()),
        ("heavy", FaultPlan::heavy()),
    ];
    let mut first = true;
    for (profile_name, faults) in profiles {
        for seed in SEEDS {
            let r = run_spec(&spec(kind, seed, faults));
            if !first {
                writeln!(out, ",").unwrap();
            }
            first = false;
            write!(
                out,
                "    {{\"faults\": \"{profile_name}\", \"seed\": {seed}, \
                 \"crashes\": {}, \"digest\": \"{:016x}\"}}",
                r.counters.worker_crashes,
                r.digest()
            )
            .unwrap();
        }
    }
    writeln!(out).unwrap();
    writeln!(out, "  ]").unwrap();
    writeln!(out, "}}").unwrap();
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}-faults.json"))
}

fn check(kind: SchedulerKind) {
    let got = render(kind);
    let path = golden_path(kind.name());
    if std::env::var_os("PHOENIX_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &got).expect("write golden snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {path:?} ({e}); generate it with \
             `PHOENIX_BLESS=1 cargo test --test golden_faults`"
        )
    });
    assert_eq!(
        got,
        want,
        "{} faulted runs drifted from their golden digests; if intentional, \
         re-bless with `PHOENIX_BLESS=1 cargo test --test golden_faults`",
        kind.name()
    );
}

#[test]
fn golden_faulted_phoenix() {
    check(SchedulerKind::Phoenix);
}

#[test]
fn golden_faulted_eagle_c() {
    check(SchedulerKind::EagleC);
}

#[test]
fn golden_faulted_yaq_d() {
    check(SchedulerKind::YaqD);
}
