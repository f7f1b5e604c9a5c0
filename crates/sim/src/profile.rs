//! Opt-in wall-clock profiling of the engine's hot paths.
//!
//! When enabled, the engine and the schedulers bracket their hot sections
//! with [`Profiler::begin`]/[`Profiler::end`] pairs keyed by a
//! [`ProfileScope`]. When disabled (the default), `begin` returns `None`
//! without reading the clock, so a normal run pays one branch per site.
//!
//! The accumulated per-scope call counts and wall-clock totals are carried
//! out of the run as a [`ProfileReport`] (`SimResult::profile`). Wall-clock
//! numbers are *not* part of [`crate::SimResult::digest`] — they vary
//! run-to-run even for identical simulations — but the call counts are
//! deterministic and useful when comparing two profiles of the same seed.

use std::fmt;
use std::time::{Duration, Instant};

/// The engine/scheduler hot paths the profiler distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileScope {
    /// `Simulation::try_dispatch`: serving a worker's queue.
    Dispatch = 0,
    /// The CRV monitor refresh inside the scheduler heartbeat.
    HeartbeatRefresh = 1,
    /// Heartbeat CRV queue reordering + stuck-probe migration.
    Reorder = 2,
    /// Work stealing on task finish.
    Steal = 3,
    /// Feasible-worker sampling during placement (`SimCtx::sample_*`).
    Sample = 4,
    /// Popping the next event batch off the event queue.
    EventPop = 5,
    /// Dispatching one event to the engine + scheduler (nested scopes
    /// such as `Sample` and `Steal` are counted in both).
    HandleEvent = 6,
}

impl ProfileScope {
    /// All scopes, in display order.
    pub const ALL: [ProfileScope; 7] = [
        ProfileScope::Dispatch,
        ProfileScope::HeartbeatRefresh,
        ProfileScope::Reorder,
        ProfileScope::Steal,
        ProfileScope::Sample,
        ProfileScope::EventPop,
        ProfileScope::HandleEvent,
    ];

    /// Human/table name of the scope.
    pub fn name(self) -> &'static str {
        match self {
            ProfileScope::Dispatch => "dispatch",
            ProfileScope::HeartbeatRefresh => "heartbeat_refresh",
            ProfileScope::Reorder => "reorder",
            ProfileScope::Steal => "steal",
            ProfileScope::Sample => "sample",
            ProfileScope::EventPop => "event_pop",
            ProfileScope::HandleEvent => "handle_event",
        }
    }
}

/// One scope's accumulated totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScopeTotals {
    /// Times the scope was entered.
    pub calls: u64,
    /// Total wall-clock time spent inside, nanoseconds.
    pub total_ns: u64,
}

impl ScopeTotals {
    /// Mean time per call, nanoseconds (0 when never called).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.calls).unwrap_or(0)
    }
}

/// Accumulates per-scope wall-clock totals; disabled (and free apart from
/// one branch per site) unless [`Profiler::enabled`] was constructed.
#[derive(Debug, Clone)]
pub struct Profiler {
    enabled: bool,
    totals: [ScopeTotals; 7],
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::disabled()
    }
}

impl Profiler {
    /// A profiler that never reads the clock.
    pub fn disabled() -> Self {
        Profiler {
            enabled: false,
            totals: [ScopeTotals::default(); 7],
        }
    }

    /// A recording profiler.
    pub fn enabled() -> Self {
        Profiler {
            enabled: true,
            totals: [ScopeTotals::default(); 7],
        }
    }

    /// Marks the start of a scope. Returns `None` (no clock read) when
    /// disabled; pass the value to [`Profiler::end`] either way.
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Marks the end of `scope`, accumulating since `started` (a no-op when
    /// `started` is `None`, i.e. the profiler was disabled at `begin`).
    #[inline]
    pub fn end(&mut self, scope: ProfileScope, started: Option<Instant>) {
        if let Some(start) = started {
            let t = &mut self.totals[scope as usize];
            t.calls += 1;
            t.total_ns = t
                .total_ns
                .saturating_add(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Snapshot of the accumulated totals (`None` if disabled — a run
    /// without `--profile` carries no report).
    pub fn report(&self) -> Option<ProfileReport> {
        if !self.enabled {
            return None;
        }
        Some(ProfileReport {
            totals: self.totals,
        })
    }
}

/// Per-scope wall-clock totals of one run, rendered by `Display` as the
/// bench runner's `--profile` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileReport {
    totals: [ScopeTotals; 7],
}

impl ProfileReport {
    /// Totals for one scope.
    pub fn scope(&self, scope: ProfileScope) -> ScopeTotals {
        self.totals[scope as usize]
    }

    /// Total wall-clock across all scopes, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.totals.iter().map(|t| t.total_ns).sum()
    }
}

fn fmt_ns(ns: u64) -> String {
    let d = Duration::from_nanos(ns);
    if ns >= 1_000_000_000 {
        format!("{:.2}s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    } else if ns >= 1_000 {
        format!("{:.2}µs", d.as_secs_f64() * 1e6)
    } else {
        format!("{ns}ns")
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<18} {:>10} {:>12} {:>12}",
            "scope", "calls", "total", "mean/call"
        )?;
        for scope in ProfileScope::ALL {
            let t = self.scope(scope);
            writeln!(
                f,
                "{:<18} {:>10} {:>12} {:>12}",
                scope.name(),
                t.calls,
                fmt_ns(t.total_ns),
                fmt_ns(t.mean_ns())
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_reads_no_clock_and_reports_nothing() {
        let mut p = Profiler::disabled();
        let started = p.begin();
        assert!(started.is_none(), "disabled begin must not read the clock");
        p.end(ProfileScope::Dispatch, started);
        assert!(p.report().is_none());
    }

    #[test]
    fn enabled_profiler_accumulates_calls_and_time() {
        let mut p = Profiler::enabled();
        for _ in 0..3 {
            let started = p.begin();
            assert!(started.is_some());
            p.end(ProfileScope::Reorder, started);
        }
        let report = p.report().expect("enabled profiler reports");
        assert_eq!(report.scope(ProfileScope::Reorder).calls, 3);
        assert_eq!(report.scope(ProfileScope::Dispatch).calls, 0);
        let table = report.to_string();
        assert!(table.contains("reorder"), "{table}");
        assert!(table.contains("dispatch"), "{table}");
        assert!(table.contains("heartbeat_refresh"), "{table}");
        assert!(table.contains("steal"), "{table}");
        assert!(table.contains("sample"), "{table}");
    }

    #[test]
    fn duration_formatting_picks_sane_units() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.50µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
