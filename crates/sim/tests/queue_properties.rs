//! Property tests on worker-queue mechanics: any sequence of enqueues,
//! promotions, tail insertions, removals and steals matches a plain-`Vec`
//! shadow model in order and bypass counts, and keeps the bound-work and
//! speculative-estimate accounting exact.

use proptest::prelude::*;

use phoenix_sim::{Probe, ProbeId, SimTime, Worker};
use phoenix_traces::JobId;

#[derive(Debug, Clone)]
enum Op {
    Enqueue {
        id: u64,
        bound: Option<u64>,
        est: u64,
        bypass: u32,
    },
    EnqueueFront {
        id: u64,
        bound: Option<u64>,
    },
    Promote {
        from: usize,
        to: usize,
        slack: u32,
    },
    TailInsert {
        slack: u32,
    },
    Remove {
        index: usize,
    },
    Steal {
        mask: u64,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..1_000, prop::option::of(1u64..8), 1u64..8, 0u32..6).prop_map(
            |(id, bound, est, bypass)| Op::Enqueue {
                id,
                bound,
                est,
                bypass
            }
        ),
        (0u64..1_000, prop::option::of(1u64..8))
            .prop_map(|(id, bound)| Op::EnqueueFront { id, bound }),
        (0usize..32, 0usize..32, 1u32..6).prop_map(|(from, to, slack)| Op::Promote {
            from,
            to,
            slack
        }),
        (1u32..6).prop_map(|slack| Op::TailInsert { slack }),
        (0usize..32).prop_map(|index| Op::Remove { index }),
        (0u64..u64::MAX).prop_map(|mask| Op::Steal { mask }),
    ]
}

/// One queued probe as the shadow model sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Model {
    id: u64,
    bound: Option<u64>,
    est: u64,
    bypass: u32,
}

impl Model {
    /// The probe's SRPT rank, as [`Probe::estimate_us`] computes it.
    fn rank(&self) -> u64 {
        self.bound.unwrap_or(self.est)
    }
}

fn probe(m: Model) -> Probe {
    Probe {
        id: ProbeId(m.id),
        job: JobId(0),
        bound_duration_us: m.bound,
        est_duration_us: m.est,
        slowdown: 1.0,
        enqueued_at: SimTime::ZERO,
        bypass_count: m.bypass,
        migrations: 0,
        retries: 0,
    }
}

/// Moves `shadow[from]` to `to`, bumping the bypass count of every probe
/// it overtakes; returns the bypassed count and the last new position of
/// an overtaken probe at or above `slack`.
fn model_promote(
    shadow: &mut Vec<Model>,
    from: usize,
    to: usize,
    slack: u32,
) -> (usize, Option<usize>) {
    let mut last_pinned = None;
    for (i, m) in shadow.iter_mut().enumerate().take(from).skip(to) {
        m.bypass += 1;
        if m.bypass >= slack {
            last_pinned = Some(i + 1);
        }
    }
    let moved = shadow.remove(from);
    shadow.insert(to, moved);
    (from - to, last_pinned)
}

/// The tail's landing position under SRPT insertion with `slack`, and
/// whether the probe ahead of that position is one the tail outranks but
/// may not pass.
fn model_tail_target(shadow: &[Model], slack: u32) -> (usize, bool) {
    let Some(tail) = shadow.last() else {
        return (0, false);
    };
    let passable = |m: &Model| m.rank() > tail.rank() && m.bypass < slack;
    let mut to = shadow.len() - 1;
    while to > 0 && passable(&shadow[to - 1]) {
        to -= 1;
    }
    let pinned = to > 0 && shadow[to - 1].rank() > tail.rank();
    (to, pinned)
}

proptest! {
    #[test]
    fn queue_surgery_preserves_multiset_and_bound_work(ops in prop::collection::vec(arb_op(), 0..64)) {
        let mut worker = Worker::new();
        let mut shadow: Vec<Model> = Vec::new();
        for op in ops {
            match op {
                Op::Enqueue { id, bound, est, bypass } => {
                    let m = Model { id, bound, est, bypass };
                    worker.enqueue(probe(m));
                    shadow.push(m);
                }
                Op::EnqueueFront { id, bound } => {
                    let m = Model { id, bound, est: 1, bypass: 0 };
                    worker.enqueue_front(probe(m));
                    shadow.insert(0, m);
                }
                Op::Promote { from, to, slack } => {
                    if from < worker.queue_len() && to <= from {
                        let got = worker.promote(from, to, slack);
                        prop_assert_eq!(got, model_promote(&mut shadow, from, to, slack));
                    }
                }
                Op::TailInsert { slack } => {
                    let got = worker.tail_insertion_target(slack, Probe::estimate_us);
                    let expected = model_tail_target(&shadow, slack);
                    prop_assert_eq!(got, expected);
                    if let Some(tail) = worker.queue_len().checked_sub(1) {
                        let got = worker.promote(tail, expected.0, slack);
                        prop_assert_eq!(got, model_promote(&mut shadow, tail, expected.0, slack));
                    }
                }
                Op::Remove { index } => {
                    if index < worker.queue_len() {
                        let removed = worker.remove_probe(index);
                        let expected = shadow.remove(index);
                        prop_assert_eq!(removed.id.0, expected.id);
                    }
                }
                Op::Steal { mask } => {
                    let picked = |id: u64| mask >> (id % 64) & 1 == 1;
                    let mut seen = Vec::new();
                    let stolen = worker.steal_if(|p| {
                        seen.push(p.id.0);
                        picked(p.id.0)
                    });
                    let all: Vec<u64> = shadow.iter().map(|m| m.id).collect();
                    prop_assert_eq!(seen, all, "predicate sees each probe once, in order");
                    let stolen: Vec<u64> = stolen.iter().map(|p| p.id.0).collect();
                    let expected: Vec<u64> =
                        shadow.iter().map(|m| m.id).filter(|&id| picked(id)).collect();
                    prop_assert_eq!(stolen, expected, "stolen in queue order");
                    shadow.retain(|m| !picked(m.id));
                }
            }
            // Invariants after every op.
            let queued: Vec<Model> = worker
                .queue()
                .iter()
                .map(|p| Model {
                    id: p.id.0,
                    bound: p.bound_duration_us,
                    est: p.est_duration_us,
                    bypass: p.bypass_count,
                })
                .collect();
            prop_assert_eq!(&queued, &shadow, "order and bypass counts match the model");
            let bound_work: u64 = shadow.iter().filter_map(|m| m.bound).sum();
            prop_assert_eq!(worker.queued_bound_work_us(), bound_work);
            let spec_est: u64 = shadow.iter().filter(|m| m.bound.is_none()).map(|m| m.est).sum();
            prop_assert_eq!(worker.queued_spec_est_us(), spec_est);
        }
    }
}
