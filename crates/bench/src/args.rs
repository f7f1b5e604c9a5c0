//! Minimal command-line scaling for the experiment binaries.

use phoenix_sim::FaultPlan;
use phoenix_traces::TraceProfile;

/// Experiment scale: translates the paper's absolute cluster sizes into
/// tractable run sizes while preserving utilization (the driver of every
/// result).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Multiplier applied to each trace profile's paper-scale node count.
    pub node_factor: f64,
    /// Jobs per run.
    pub jobs: usize,
    /// Seeds per data point (the paper averages five runs).
    pub seeds: u64,
    /// Fault profile injected into every run (`FaultPlan::none()` unless
    /// `--faults reference|heavy` is given).
    pub faults: FaultPlan,
}

impl Scale {
    /// Quick scale: 1/10 of the paper's cluster sizes, 3 seeds. A full
    /// figure regenerates in minutes on a laptop. Below ~1/10 scale the
    /// rarest constraint classes shrink to a couple of machines and their
    /// queueing behaviour stops being representative.
    pub fn quick() -> Self {
        Scale {
            node_factor: 0.1,
            jobs: 20_000,
            seeds: 3,
            faults: FaultPlan::none(),
        }
    }

    /// Smoke scale for tests/benches: small but exercising every code path.
    pub fn smoke() -> Self {
        Scale {
            node_factor: 0.06,
            jobs: 3_000,
            seeds: 1,
            faults: FaultPlan::none(),
        }
    }

    /// Full scale: 1/3 of the paper's node counts, 5 seeds (15,000-node
    /// runs at factor 1.0 work but take hours for the full sweep set).
    pub fn full() -> Self {
        Scale {
            node_factor: 0.33,
            jobs: 100_000,
            seeds: 5,
            faults: FaultPlan::none(),
        }
    }

    /// Parses `--scale quick|smoke|full` (and optional `--seeds N`,
    /// `--jobs N`, `--faults none|reference|heavy`) from the process
    /// arguments; defaults to quick, fault-free.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let mut scale = Scale::quick();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" if i + 1 < args.len() => {
                    scale = match args[i + 1].as_str() {
                        "full" => Scale::full(),
                        "smoke" => Scale::smoke(),
                        _ => Scale::quick(),
                    };
                    i += 1;
                }
                "--seeds" if i + 1 < args.len() => {
                    if let Ok(n) = args[i + 1].parse() {
                        scale.seeds = n;
                    }
                    i += 1;
                }
                "--jobs" if i + 1 < args.len() => {
                    if let Ok(n) = args[i + 1].parse() {
                        scale.jobs = n;
                    }
                    i += 1;
                }
                "--faults" if i + 1 < args.len() => {
                    if let Some(plan) = FaultPlan::by_name(args[i + 1].as_str()) {
                        scale.faults = plan;
                    }
                    i += 1;
                }
                _ => {}
            }
            i += 1;
        }
        scale
    }

    /// The scaled node count for a trace profile.
    pub fn nodes_for(&self, profile: &TraceProfile) -> usize {
        ((profile.default_nodes as f64) * self.node_factor).round() as usize
    }

    /// Seed values for one data point.
    pub fn seed_list(&self) -> Vec<u64> {
        (1..=self.seeds).collect()
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::quick()
    }
}

/// Observability flags (`--trace-out <path>`, `--profile`, `--audit`) for
/// the bench binaries. Parsed separately from [`Scale`] so the scale
/// presets stay `Copy`-able plain data.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObserveArgs {
    /// Write a JSONL event trace of the run to this path.
    pub trace_out: Option<std::path::PathBuf>,
    /// Print the wall-clock hot-path profile table after the run.
    pub profile: bool,
    /// Run under the invariant auditor and print its report after the run.
    pub audit: bool,
}

impl ObserveArgs {
    /// Parses `--trace-out <path>`, `--profile` and `--audit` from the
    /// process arguments.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses the flags from an explicit argument stream (testable).
    pub fn parse(args: impl Iterator<Item = String>) -> Self {
        let args: Vec<String> = args.collect();
        let mut observe = ObserveArgs::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--trace-out" if i + 1 < args.len() => {
                    observe.trace_out = Some(std::path::PathBuf::from(&args[i + 1]));
                    i += 1;
                }
                "--profile" => observe.profile = true,
                "--audit" => observe.audit = true,
                _ => {}
            }
            i += 1;
        }
        observe
    }
}

/// `--only <profile>/<nodes>/<jobs>` row selection for the `scale` bin:
/// re-measures chosen ladder rows instead of the whole sweep. Repeat the
/// flag to select several rows; with none given every row runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowFilter {
    /// The requested row keys, in command-line order.
    pub keys: Vec<String>,
}

impl RowFilter {
    /// Parses every `--only <key>` from the process arguments.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses the flags from an explicit argument stream (testable).
    pub fn parse(args: impl Iterator<Item = String>) -> Self {
        let args: Vec<String> = args.collect();
        let keys = args
            .windows(2)
            .filter(|pair| pair[0] == "--only")
            .map(|pair| pair[1].clone())
            .collect();
        RowFilter { keys }
    }

    /// Keeps the rows whose key was requested, in ladder order (every row
    /// when no key was given). A requested key that names no row is an
    /// error whose message lists the valid keys.
    pub fn select<T>(&self, rows: Vec<(String, T)>) -> Result<Vec<T>, String> {
        if self.keys.is_empty() {
            return Ok(rows.into_iter().map(|(_, row)| row).collect());
        }
        if let Some(unknown) = self
            .keys
            .iter()
            .find(|key| !rows.iter().any(|(k, _)| k == *key))
        {
            let mut valid: Vec<&str> = rows.iter().map(|(k, _)| k.as_str()).collect();
            valid.dedup();
            return Err(format!(
                "unknown --only row `{unknown}`; valid rows:\n  {}",
                valid.join("\n  ")
            ));
        }
        Ok(rows
            .into_iter()
            .filter(|(k, _)| self.keys.contains(k))
            .map(|(_, row)| row)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_nodes_follow_profile() {
        let s = Scale::quick();
        assert_eq!(s.nodes_for(&TraceProfile::google()), 1_500);
        assert_eq!(s.nodes_for(&TraceProfile::yahoo()), 500);
    }

    #[test]
    fn seed_list_has_requested_length() {
        assert_eq!(Scale::full().seed_list().len(), 5);
        assert_eq!(Scale::smoke().seed_list(), vec![1]);
    }

    #[test]
    fn observe_args_parse_flags() {
        let o = ObserveArgs::parse(
            [
                "--trace-out",
                "/tmp/t.jsonl",
                "--profile",
                "--audit",
                "--scale",
                "smoke",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert_eq!(
            o.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/t.jsonl"))
        );
        assert!(o.profile);
        assert!(o.audit);
        let none = ObserveArgs::parse(["--scale", "quick"].iter().map(|s| s.to_string()));
        assert_eq!(none, ObserveArgs::default());
    }

    #[test]
    fn row_filter_parses_and_selects() {
        fn args(list: &[&str]) -> std::vec::IntoIter<String> {
            list.iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .into_iter()
        }
        let rows = || {
            vec![
                ("yahoo/5000/25000".to_string(), 1),
                ("yahoo/5000/50000".to_string(), 2),
                ("yahoo+K16@2000ms/100000/12500".to_string(), 3),
            ]
        };
        // No flag: every row, in order.
        let all = RowFilter::parse(args(&["--jobs", "400"]));
        assert_eq!(all, RowFilter::default());
        assert_eq!(all.select(rows()), Ok(vec![1, 2, 3]));
        // Repeated flags select in ladder order, not flag order.
        let two = RowFilter::parse(args(&[
            "--only",
            "yahoo+K16@2000ms/100000/12500",
            "--scale",
            "smoke",
            "--only",
            "yahoo/5000/50000",
        ]));
        assert_eq!(two.keys.len(), 2);
        assert_eq!(two.select(rows()), Ok(vec![2, 3]));
        // An unknown key fails and lists every valid row.
        let bad = RowFilter::parse(args(&["--only", "yahoo/5000/99"]));
        let err = bad.select(rows()).unwrap_err();
        assert!(err.contains("`yahoo/5000/99`"), "{err}");
        for (key, _) in rows() {
            assert!(err.contains(&key), "{err} must list {key}");
        }
        // A trailing flag with no value selects nothing.
        assert_eq!(RowFilter::parse(args(&["--only"])), RowFilter::default());
    }

    #[test]
    fn presets_are_ordered_by_size() {
        let (s, q, f) = (Scale::smoke(), Scale::quick(), Scale::full());
        assert!(s.node_factor < q.node_factor && q.node_factor < f.node_factor);
        assert!(s.jobs < q.jobs && q.jobs < f.jobs);
        assert!(s.seeds <= q.seeds && q.seeds <= f.seeds);
    }
}
