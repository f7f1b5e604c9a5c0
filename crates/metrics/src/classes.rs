//! Per-class latency aggregation: short/long × constrained/unconstrained.
//!
//! Every figure in the paper slices latencies along these two axes —
//! Figs. 7/10/11 report *short* jobs, Fig. 8 *long* jobs, Fig. 9 contrasts
//! *constrained* vs. *unconstrained* jobs.

use std::fmt;

use crate::distribution::Distribution;

/// Short vs. long job classification (Hawk-style runtime cutoff).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobClass {
    /// Latency-critical short job (80–95 % of the workload).
    Short,
    /// Batch long job.
    Long,
}

impl JobClass {
    /// Both classes.
    pub const ALL: [JobClass; 2] = [JobClass::Short, JobClass::Long];
}

impl fmt::Display for JobClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JobClass::Short => "short",
            JobClass::Long => "long",
        })
    }
}

/// Whether a job carried any placement constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintStatus {
    /// At least one constraint.
    Constrained,
    /// No constraints.
    Unconstrained,
}

impl ConstraintStatus {
    /// Both statuses.
    pub const ALL: [ConstraintStatus; 2] = [
        ConstraintStatus::Constrained,
        ConstraintStatus::Unconstrained,
    ];
}

impl fmt::Display for ConstraintStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ConstraintStatus::Constrained => "constrained",
            ConstraintStatus::Unconstrained => "unconstrained",
        })
    }
}

/// A (class, status) cell key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LatencyKey {
    /// Short or long.
    pub class: JobClass,
    /// Constrained or not.
    pub status: ConstraintStatus,
}

impl LatencyKey {
    /// Creates a key.
    pub fn new(class: JobClass, status: ConstraintStatus) -> Self {
        LatencyKey { class, status }
    }
}

impl fmt::Display for LatencyKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.class, self.status)
    }
}

/// Latency distributions bucketed by (class, status).
#[derive(Debug, Clone, Default)]
pub struct ClassifiedLatencies {
    cells: [Distribution; 4],
}

fn cell_index(key: LatencyKey) -> usize {
    let c = match key.class {
        JobClass::Short => 0,
        JobClass::Long => 1,
    };
    let s = match key.status {
        ConstraintStatus::Constrained => 0,
        ConstraintStatus::Unconstrained => 1,
    };
    c * 2 + s
}

impl ClassifiedLatencies {
    /// Creates an empty aggregation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a latency sample for a (class, status) cell.
    pub fn record(&mut self, key: LatencyKey, value: f64) {
        self.cells[cell_index(key)].record(value);
    }

    /// The distribution of one cell.
    pub fn cell(&self, key: LatencyKey) -> &Distribution {
        &self.cells[cell_index(key)]
    }

    /// All samples of a job class, merged across constraint statuses.
    pub fn by_class(&self, class: JobClass) -> Distribution {
        let mut merged = Distribution::new();
        for status in ConstraintStatus::ALL {
            merged.merge(self.cell(LatencyKey::new(class, status)));
        }
        merged
    }

    /// All samples of a constraint status, merged across classes.
    pub fn by_status(&self, status: ConstraintStatus) -> Distribution {
        let mut merged = Distribution::new();
        for class in JobClass::ALL {
            merged.merge(self.cell(LatencyKey::new(class, status)));
        }
        merged
    }

    /// Everything, merged.
    pub fn overall(&self) -> Distribution {
        let mut merged = Distribution::new();
        for cell in &self.cells {
            merged.merge(cell);
        }
        merged
    }

    /// Merges another aggregation into this one, cell-wise.
    pub fn merge(&mut self, other: &ClassifiedLatencies) {
        for class in JobClass::ALL {
            for status in ConstraintStatus::ALL {
                let key = LatencyKey::new(class, status);
                self.cells[cell_index(key)].merge(other.cell(key));
            }
        }
    }

    /// Total number of samples across all cells.
    pub fn len(&self) -> usize {
        self.cells.iter().map(Distribution::len).sum()
    }

    /// Whether no samples exist anywhere.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(class: JobClass, status: ConstraintStatus) -> LatencyKey {
        LatencyKey::new(class, status)
    }

    #[test]
    fn cells_are_independent() {
        let mut c = ClassifiedLatencies::new();
        c.record(key(JobClass::Short, ConstraintStatus::Constrained), 1.0);
        c.record(key(JobClass::Long, ConstraintStatus::Unconstrained), 9.0);
        assert_eq!(
            c.cell(key(JobClass::Short, ConstraintStatus::Constrained))
                .len(),
            1
        );
        assert_eq!(
            c.cell(key(JobClass::Short, ConstraintStatus::Unconstrained))
                .len(),
            0
        );
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn class_and_status_merges() {
        let mut c = ClassifiedLatencies::new();
        c.record(key(JobClass::Short, ConstraintStatus::Constrained), 1.0);
        c.record(key(JobClass::Short, ConstraintStatus::Unconstrained), 2.0);
        c.record(key(JobClass::Long, ConstraintStatus::Constrained), 3.0);
        assert_eq!(c.by_class(JobClass::Short).len(), 2);
        assert_eq!(c.by_status(ConstraintStatus::Constrained).len(), 2);
        assert_eq!(c.overall().len(), 3);
    }

    #[test]
    fn merge_is_cellwise() {
        let mut a = ClassifiedLatencies::new();
        a.record(key(JobClass::Short, ConstraintStatus::Constrained), 1.0);
        let mut b = ClassifiedLatencies::new();
        b.record(key(JobClass::Short, ConstraintStatus::Constrained), 2.0);
        b.record(key(JobClass::Long, ConstraintStatus::Unconstrained), 3.0);
        a.merge(&b);
        assert_eq!(
            a.cell(key(JobClass::Short, ConstraintStatus::Constrained))
                .len(),
            2
        );
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn empty_reports_empty() {
        let c = ClassifiedLatencies::new();
        assert!(c.is_empty());
        assert!(c.overall().is_empty());
    }

    #[test]
    fn keys_display_both_axes() {
        let k = key(JobClass::Long, ConstraintStatus::Constrained);
        assert_eq!(k.to_string(), "long/constrained");
    }
}
