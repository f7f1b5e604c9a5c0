//! Property tests of the calendar event queue.
//!
//! * It pops in exactly the order the old `BinaryHeap` future-event list
//!   did — `(time, seq)` ascending, FIFO among same-time events — under
//!   arbitrary interleavings of schedules, reserved-sequence schedules and
//!   pops, including same-timestamp bursts, events many windows in the
//!   future, and (unlike the engine) non-monotone schedule times.
//! * Every popped event equals the one scheduled, for all nine kinds: the
//!   probe-carrying kinds keep their probe in a slab whose slots are
//!   reused, so a slot mix-up shows up as a wrong probe.
//! * A chained arrival stream (reserve `0..N`, schedule arrival 0, each
//!   arrival schedules the next) pops exactly like eagerly scheduling all
//!   `N` arrivals up front.
//! * `drain_unordered` returns every pending event exactly once.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use phoenix_sim::{Event, EventQueue, Probe, ProbeId, SimTime, WorkerId};
use phoenix_traces::JobId;

#[derive(Debug, Clone)]
enum Op {
    /// Schedule an event of kind `kind` at (roughly) the given time.
    Schedule(u64, u8),
    /// Reserve this many sequence numbers for later `ScheduleReserved` ops.
    Reserve(u8),
    /// Schedule an event under one of the unused reserved sequence numbers
    /// (picked by the third field), if any is left.
    ScheduleReserved(u64, u8, u8),
    Pop,
}

/// Times mix four scales so runs exercise intra-bucket ties, intra-window
/// ordering, window advances, and the far heap: the calendar bucket is
/// 2^16 us wide and the window 2^28 us.
fn arb_time() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..16,        // dense ties in one bucket
        0u64..(1 << 17), // a couple of buckets
        0u64..(1 << 29), // crosses the window boundary
        0u64..(1 << 33), // tens of windows out
    ]
}

/// Kinds `0..9` are the nine event kinds; `9..12` add more probe-carrying
/// events so the probe slab sees plenty of slot reuse.
fn arb_kind() -> impl Strategy<Value = u8> {
    0u8..12
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_time(), arb_kind()).prop_map(|(t, k)| Op::Schedule(t, k)),
        (arb_time(), arb_kind()).prop_map(|(t, k)| Op::Schedule(t, k)),
        (arb_time(), arb_kind()).prop_map(|(t, k)| Op::Schedule(t, k)),
        (0u8..4).prop_map(Op::Reserve),
        (arb_time(), arb_kind(), 0u8..255).prop_map(|(t, k, p)| Op::ScheduleReserved(t, k, p)),
        Just(Op::Pop),
        Just(Op::Pop),
    ]
}

/// An event of kind `kind` whose payload is unique to `marker`. Probes
/// alternate between bound and speculative and differ in every field.
fn event_of(kind: u8, marker: u32) -> Event {
    let m = u64::from(marker);
    let worker = WorkerId(marker % 7);
    let probe = Probe {
        id: ProbeId(m),
        job: JobId(marker),
        bound_duration_us: marker.is_multiple_of(2).then_some(3 * m + 1),
        est_duration_us: m + 5,
        slowdown: 1.0 + f64::from(marker % 4) / 8.0,
        enqueued_at: SimTime(m * 11),
        bypass_count: marker % 5,
        migrations: (marker % 3) as u8,
        retries: (marker % 4) as u8,
    };
    match kind {
        0 => Event::JobArrival(marker),
        1 | 9 | 10 => Event::ProbeArrival(worker, probe),
        2 => Event::TaskFinish(worker, m << 20),
        3 => Event::SchedulerWakeup(m),
        4 => Event::WorkerCrash(worker),
        5 => Event::WorkerRecover(worker),
        6 | 11 => Event::ProbeRetry(probe),
        7 => Event::GossipPublish,
        _ => Event::GossipDeliver,
    }
}

fn carries_probe(event: &Event) -> bool {
    matches!(event, Event::ProbeArrival(..) | Event::ProbeRetry(_))
}

/// The queue under test beside its oracle: a min-heap on `(time, seq)`
/// holding each event's index into `events`, exactly the ordering contract
/// the old implementation provided.
#[derive(Default)]
struct Model {
    queue: EventQueue,
    oracle: BinaryHeap<Reverse<(u64, u64, usize)>>,
    events: Vec<Event>,
    next_seq: u64,
    unused_reserved: Vec<u64>,
    probes_pending: u64,
    peak_pending: u64,
    peak_probes: u64,
}

impl Model {
    fn push_oracle(&mut self, t: u64, seq: u64, event: Event) {
        if carries_probe(&event) {
            self.probes_pending += 1;
            self.peak_probes = self.peak_probes.max(self.probes_pending);
        }
        self.oracle.push(Reverse((t, seq, self.events.len())));
        self.events.push(event);
        self.peak_pending = self.peak_pending.max(self.oracle.len() as u64);
    }

    fn apply(&mut self, op: &Op) {
        let marker = self.events.len() as u32;
        match *op {
            Op::Schedule(t, kind) => {
                let event = event_of(kind, marker);
                self.queue.schedule(SimTime(t), event.clone());
                let seq = self.next_seq;
                self.next_seq += 1;
                self.push_oracle(t, seq, event);
            }
            Op::Reserve(n) => {
                let first = self.queue.reserve_seqs(u64::from(n));
                assert_eq!(first, self.next_seq, "reservation starts at the next seq");
                self.unused_reserved.extend(first..first + u64::from(n));
                self.next_seq += u64::from(n);
            }
            Op::ScheduleReserved(t, kind, pick) => {
                if self.unused_reserved.is_empty() {
                    return;
                }
                let seq = self
                    .unused_reserved
                    .swap_remove(usize::from(pick) % self.unused_reserved.len());
                let event = event_of(kind, marker);
                self.queue.schedule_reserved(SimTime(t), seq, event.clone());
                self.push_oracle(t, seq, event);
            }
            Op::Pop => self.pop_and_check(),
        }
        assert_eq!(self.queue.len(), self.oracle.len());
        assert_eq!(self.queue.is_empty(), self.oracle.is_empty());
    }

    fn pop_and_check(&mut self) {
        let got = self.queue.pop();
        let want = self.oracle.pop().map(|Reverse((t, _, i))| {
            let event = self.events[i].clone();
            if carries_probe(&event) {
                self.probes_pending -= 1;
            }
            (SimTime(t), event)
        });
        assert_eq!(got, want, "pop diverged from the heap oracle");
    }

    fn check_stats(&self) {
        let stats = self.queue.stats();
        assert_eq!(stats.peak_pending, self.peak_pending);
        assert_eq!(
            stats.peak_probes, self.peak_probes,
            "the slab grows only when no freed slot is left"
        );
    }
}

proptest! {
    #[test]
    fn calendar_queue_matches_binary_heap_oracle(ops in prop::collection::vec(arb_op(), 0..200)) {
        let mut model = Model::default();
        for op in &ops {
            model.apply(op);
        }
        model.check_stats();
        // Drain the remainder: full order must agree.
        while !model.oracle.is_empty() {
            model.pop_and_check();
        }
        prop_assert!(model.queue.pop().is_none());
    }

    #[test]
    fn drain_unordered_returns_every_pending_event_once(
        ops in prop::collection::vec(arb_op(), 0..200),
        after in prop::collection::vec((arb_time(), arb_kind()), 0..20),
    ) {
        let mut model = Model::default();
        for op in &ops {
            model.apply(op);
        }
        let mut drained = model.queue.drain_unordered();
        drained.sort_by_key(|&(t, seq, _)| (t, seq));
        let mut want: Vec<(SimTime, u64, Event)> = model
            .oracle
            .drain()
            .map(|Reverse((t, seq, i))| (SimTime(t), seq, model.events[i].clone()))
            .collect();
        want.sort_by_key(|&(t, seq, _)| (t, seq));
        prop_assert_eq!(drained, want);
        prop_assert!(model.queue.is_empty());
        model.probes_pending = 0;
        // Slots freed by the drain are reused by later schedules.
        for &(t, kind) in &after {
            model.apply(&Op::Schedule(t, kind));
        }
        model.check_stats();
        while !model.oracle.is_empty() {
            model.pop_and_check();
        }
        prop_assert!(model.queue.pop().is_none());
    }

    #[test]
    fn chained_arrivals_pop_like_eager_ones(
        gaps in prop::collection::vec(prop_oneof![Just(0u64), 0u64..(1 << 18), 0u64..(1 << 30)], 1..60),
        follow_ups in prop::collection::vec(
            prop::collection::vec((prop_oneof![Just(0u64), arb_time()], 1u8..12), 0..3),
            1..40,
        ),
    ) {
        let arrivals: Vec<u64> = gaps
            .iter()
            .scan(0u64, |t, gap| {
                *t += gap;
                Some(*t)
            })
            .collect();
        // Drives a queue to empty. Each popped event schedules the
        // follow-ups its pop index selects (so both runs schedule the same
        // events if and only if they popped the same ones so far); under
        // `chained`, an arrival first schedules the next arrival under its
        // reserved sequence number, as the engine does.
        let run = |chained: bool| {
            let n = arrivals.len() as u64;
            let mut queue = EventQueue::new();
            if chained {
                assert_eq!(queue.reserve_seqs(n), 0);
                queue.schedule_reserved(SimTime(arrivals[0]), 0, Event::JobArrival(0));
            } else {
                for (i, &t) in arrivals.iter().enumerate() {
                    queue.schedule(SimTime(t), Event::JobArrival(i as u32));
                }
            }
            let mut popped = Vec::new();
            while let Some((t, event)) = queue.pop() {
                if let (true, Event::JobArrival(i)) = (chained, &event) {
                    let next = *i as usize + 1;
                    if next < arrivals.len() {
                        queue.schedule_reserved(
                            SimTime(arrivals[next]),
                            next as u64,
                            Event::JobArrival(next as u32),
                        );
                    }
                }
                let k = popped.len();
                if k < 300 {
                    for (j, &(offset, kind)) in follow_ups[k % follow_ups.len()].iter().enumerate() {
                        let marker = (k * 3 + j) as u32;
                        queue.schedule(SimTime(t.0 + offset), event_of(kind, marker));
                    }
                }
                popped.push((t, event));
            }
            popped
        };
        let eager = run(false);
        let chained = run(true);
        prop_assert_eq!(chained.len(), eager.len());
        prop_assert_eq!(chained, eager, "chaining moved an event");
    }
}
