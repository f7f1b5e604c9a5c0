//! The discrete-event queue.
//!
//! A two-tier calendar queue: events inside the current ~268 s window live
//! in fixed-width time buckets (65.536 ms each) and cost O(1) amortized to
//! push and pop; events beyond the window wait in an overflow heap and are
//! transferred in bulk whenever the window advances. Buckets are sorted
//! lazily — a bucket is only ordered when the pop cursor actually reaches
//! it, so same-timestamp bursts are sorted once and then drained O(1) per
//! event. The pop order is exactly `(time, seq)` — identical to the former
//! `BinaryHeap` implementation, including FIFO tie-breaks among same-time
//! events (property-tested against a heap oracle in
//! `tests/event_queue_properties.rs`).
//!
//! The queue holds only in-flight events, and each one small:
//!
//! * **Packed payloads.** An entry stores a 16-byte `Copy` payload, not
//!   the [`Event`] itself, so an entry is 32 bytes. The two probe-carrying
//!   kinds ([`Event::ProbeArrival`], [`Event::ProbeRetry`]) keep their
//!   [`Probe`] in a slab owned by the queue and store its `u32` slot;
//!   [`EventQueue::pop`] and [`EventQueue::drain_unordered`] unpack the
//!   event and free the slot onto a LIFO free list, so the slab never
//!   holds more probes than were ever in flight at once.
//! * **Reserved sequence numbers.** [`EventQueue::reserve_seqs`] hands out
//!   sequence numbers for events scheduled later with
//!   [`EventQueue::schedule_reserved`]. The engine reserves `0..N` for a
//!   trace's `N` job arrivals and schedules only the first; each arrival
//!   schedules the next under its reserved number. Every arrival keeps the
//!   `(time, seq)` key that scheduling all `N` up front would give it, so
//!   the pop order is unchanged, while the queue holds one arrival instead
//!   of the whole trace.
//! * **Drained buckets let go.** When the pop cursor passes a bucket it
//!   drops the bucket's buffer. A bucket is next used a whole window
//!   later, so keeping its capacity would make the near window hold the
//!   sum of every bucket's busiest moment rather than what is in flight.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::probe::Probe;
use crate::time::SimTime;
use crate::worker::WorkerId;

/// A simulation event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The `index`-th job of the trace arrives at the scheduler.
    JobArrival(u32),
    /// A probe (speculative or bound) reaches a worker's queue after its
    /// network delay.
    ProbeArrival(WorkerId, Probe),
    /// The task with the given engine sequence number finishes on a
    /// worker.
    TaskFinish(WorkerId, u64),
    /// A scheduler-requested wakeup (heartbeats, delayed actions). The token
    /// is opaque to the engine.
    SchedulerWakeup(u64),
    /// Fault injection: the worker crashes, killing its running tasks and
    /// dropping its queued probes.
    WorkerCrash(WorkerId),
    /// Fault injection: a crashed worker comes back up, idle and empty.
    WorkerRecover(WorkerId),
    /// A probe that was lost, killed, or addressed to a dead worker comes
    /// up for re-placement after its backoff; handled by
    /// [`crate::Scheduler::on_probe_retry`].
    ProbeRetry(Probe),
    /// Federation: every domain snapshots its ledger into a summary batch
    /// (and chains the next round). Only scheduled with two or more
    /// domains; draws no randomness.
    GossipPublish,
    /// Federation: the oldest published-but-undelivered summary batch
    /// becomes visible (fires `staleness` after its publish).
    GossipDeliver,
}

/// An [`Event`] as the queue stores it: probes are replaced by their slot
/// in the queue's probe slab.
#[derive(Debug, Clone, Copy)]
enum Payload {
    JobArrival(u32),
    ProbeArrival(WorkerId, u32),
    TaskFinish(WorkerId, u64),
    SchedulerWakeup(u64),
    WorkerCrash(WorkerId),
    WorkerRecover(WorkerId),
    ProbeRetry(u32),
    GossipPublish,
    GossipDeliver,
}

/// An event scheduled at a time, with a sequence number breaking ties
/// deterministically (FIFO among same-time events).
#[derive(Debug, Clone)]
struct Scheduled {
    time: SimTime,
    seq: u64,
    payload: Payload,
}

const _: () = assert!(std::mem::size_of::<Payload>() == 16);
const _: () = assert!(std::mem::size_of::<Scheduled>() == 32);

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// What a run's event queue peaked at. Deterministic for a given run, so
/// it replays exactly, but it is a memory measurement, not an outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventQueueStats {
    /// Most events pending at once.
    pub peak_pending: u64,
    /// Most probes in flight at once: the probe slab's high-water mark.
    pub peak_probes: u64,
}

/// Width of one calendar bucket in microseconds (65.536 ms). A power of
/// two so the bucket index is a shift, not a division.
const BUCKET_BITS: u32 = 16;
const BUCKET_WIDTH: u64 = 1 << BUCKET_BITS;
/// Buckets per window. At the paper's event densities (~100 events per
/// second of simulated time) a bucket holds a handful of events.
const NUM_BUCKETS: usize = 4096;
/// Time span of the near window (~268 s of simulated time).
const WINDOW: u64 = BUCKET_WIDTH * NUM_BUCKETS as u64;

/// A deterministic future-event list (two-tier calendar queue).
#[derive(Debug)]
pub struct EventQueue {
    /// Near window: `buckets[i]` holds events with
    /// `base + i*BUCKET_WIDTH <= t < base + (i+1)*BUCKET_WIDTH`.
    buckets: Vec<Vec<Scheduled>>,
    /// Per-bucket "needs sorting" flag; set on push, cleared when the pop
    /// cursor sorts the bucket (descending, so `Vec::pop` yields the min).
    dirty: Vec<bool>,
    /// First bucket index that may still hold events; buckets before it
    /// are empty. Only advances while searching for the next event.
    cursor: usize,
    /// Start of the near window. Always a multiple of `WINDOW`.
    base: u64,
    /// Events at or beyond `base + WINDOW`, transferred into buckets when
    /// the window advances past the last near event.
    far: BinaryHeap<Scheduled>,
    /// The probes of pending probe-carrying events, indexed by slot. Its
    /// length is the most probes ever in flight at once.
    probes: Vec<Probe>,
    /// Slots of `probes` free for reuse, most recently freed last.
    free_slots: Vec<u32>,
    len: usize,
    peak_len: usize,
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            dirty: vec![false; NUM_BUCKETS],
            cursor: 0,
            base: 0,
            far: BinaryHeap::new(),
            probes: Vec::new(),
            free_slots: Vec::new(),
            len: 0,
            peak_len: 0,
            next_seq: 0,
        }
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.schedule_reserved(at, seq, event);
    }

    /// Reserves the next `n` sequence numbers and returns the first. Events
    /// scheduled later under them with [`EventQueue::schedule_reserved`]
    /// order exactly as if they had been scheduled now.
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        first
    }

    /// Schedules `event` at `at` under `seq`, a sequence number taken
    /// from [`EventQueue::reserve_seqs`]. Each reserved number must be used
    /// at most once.
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: Event) {
        debug_assert!(
            seq < self.next_seq,
            "sequence number {seq} was never reserved"
        );
        let payload = self.pack(event);
        self.push_scheduled(Scheduled {
            time: at,
            seq,
            payload,
        });
        self.peak_len = self.peak_len.max(self.len);
    }

    /// Stores `event`'s probe, if it carries one, in the slab.
    fn pack(&mut self, event: Event) -> Payload {
        match event {
            Event::JobArrival(index) => Payload::JobArrival(index),
            Event::ProbeArrival(worker, probe) => {
                Payload::ProbeArrival(worker, self.store_probe(probe))
            }
            Event::TaskFinish(worker, seq) => Payload::TaskFinish(worker, seq),
            Event::SchedulerWakeup(token) => Payload::SchedulerWakeup(token),
            Event::WorkerCrash(worker) => Payload::WorkerCrash(worker),
            Event::WorkerRecover(worker) => Payload::WorkerRecover(worker),
            Event::ProbeRetry(probe) => Payload::ProbeRetry(self.store_probe(probe)),
            Event::GossipPublish => Payload::GossipPublish,
            Event::GossipDeliver => Payload::GossipDeliver,
        }
    }

    /// The event `payload` stands for, and the slab slot it holds, if any.
    fn unpack(&self, payload: Payload) -> (Event, Option<u32>) {
        let probe = |slot: u32| self.probes[slot as usize];
        match payload {
            Payload::JobArrival(index) => (Event::JobArrival(index), None),
            Payload::ProbeArrival(worker, slot) => {
                (Event::ProbeArrival(worker, probe(slot)), Some(slot))
            }
            Payload::TaskFinish(worker, seq) => (Event::TaskFinish(worker, seq), None),
            Payload::SchedulerWakeup(token) => (Event::SchedulerWakeup(token), None),
            Payload::WorkerCrash(worker) => (Event::WorkerCrash(worker), None),
            Payload::WorkerRecover(worker) => (Event::WorkerRecover(worker), None),
            Payload::ProbeRetry(slot) => (Event::ProbeRetry(probe(slot)), Some(slot)),
            Payload::GossipPublish => (Event::GossipPublish, None),
            Payload::GossipDeliver => (Event::GossipDeliver, None),
        }
    }

    /// Unpacks a payload leaving the queue, freeing its probe slot.
    fn take(&mut self, payload: Payload) -> Event {
        let (event, slot) = self.unpack(payload);
        if let Some(slot) = slot {
            self.free_slots.push(slot);
        }
        event
    }

    fn store_probe(&mut self, probe: Probe) -> u32 {
        match self.free_slots.pop() {
            Some(slot) => {
                self.probes[slot as usize] = probe;
                slot
            }
            None => {
                self.probes.push(probe);
                u32::try_from(self.probes.len() - 1).expect("more than 2^32 probes in flight")
            }
        }
    }

    fn push_scheduled(&mut self, s: Scheduled) {
        if s.time.0 < self.base {
            // Scheduling before the window start only happens when a test
            // drives the queue with non-monotone times (the engine never
            // schedules in the past); rewind the whole window to cover it.
            self.rebase(s.time.0);
        }
        self.len += 1;
        if s.time.0 < self.base + WINDOW {
            let idx = ((s.time.0 - self.base) >> BUCKET_BITS) as usize;
            // Non-monotone test drivers may also land behind the cursor
            // inside the window; pull the cursor back so pop re-scans.
            if idx < self.cursor {
                self.cursor = idx;
            }
            self.buckets[idx].push(s);
            self.dirty[idx] = true;
        } else {
            self.far.push(s);
        }
    }

    /// Rewinds the window so it starts at or before `t`, rehoming every
    /// pending event. O(len); never hit by the monotone engine.
    fn rebase(&mut self, t: u64) {
        let mut pending: Vec<Scheduled> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            pending.append(b);
        }
        pending.extend(self.far.drain());
        self.dirty.iter_mut().for_each(|d| *d = false);
        self.base = t / WINDOW * WINDOW;
        self.cursor = 0;
        self.len = 0;
        for s in pending {
            self.push_scheduled(s);
        }
    }

    /// Advances the window to the earliest far event and moves every far
    /// event that now fits into the buckets. Caller guarantees the near
    /// window is empty and `far` is not.
    fn advance_window(&mut self) {
        let earliest = self.far.peek().expect("advance_window on empty far").time.0;
        self.base = earliest / WINDOW * WINDOW;
        self.cursor = ((earliest - self.base) >> BUCKET_BITS) as usize;
        let limit = self.base + WINDOW;
        while let Some(s) = self.far.peek() {
            if s.time.0 >= limit {
                break;
            }
            let s = self.far.pop().expect("peeked");
            let idx = ((s.time.0 - self.base) >> BUCKET_BITS) as usize;
            self.buckets[idx].push(s);
            self.dirty[idx] = true;
        }
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        if self.len == 0 {
            return None;
        }
        loop {
            while self.cursor < NUM_BUCKETS {
                if !self.buckets[self.cursor].is_empty() {
                    let idx = self.cursor;
                    if self.dirty[idx] {
                        if self.buckets[idx].len() > 1 {
                            self.buckets[idx]
                                .sort_unstable_by_key(|s| std::cmp::Reverse((s.time, s.seq)));
                        }
                        self.dirty[idx] = false;
                    }
                    let s = self.buckets[idx].pop().expect("non-empty bucket");
                    self.len -= 1;
                    return Some((s.time, self.take(s.payload)));
                }
                // Drained for this window: hand its memory back rather
                // than hold it until the window comes round again.
                self.buckets[self.cursor] = Vec::new();
                self.cursor += 1;
            }
            debug_assert!(!self.far.is_empty(), "len > 0 but near and far empty");
            self.advance_window();
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The queue's high-water marks so far.
    pub fn stats(&self) -> EventQueueStats {
        EventQueueStats {
            peak_pending: self.peak_len as u64,
            peak_probes: self.probes.len() as u64,
        }
    }

    /// Iterates copies of the pending events in unspecified order (the
    /// invariant auditor scans for in-flight probes; it never consumes).
    pub(crate) fn pending_events(&self) -> impl Iterator<Item = Event> + '_ {
        self.buckets
            .iter()
            .flat_map(|b| b.iter())
            .chain(self.far.iter())
            .map(|s| self.unpack(s.payload).0)
    }

    /// Drains every pending event, unordered, keeping the assigned
    /// `(time, seq)` pairs — the reference executor absorbs them into its
    /// naive flat list and re-derives the ordering itself. The sequence
    /// counter is *not* reset, so later schedules keep numbering from where
    /// the engine left off.
    pub fn drain_unordered(&mut self) -> Vec<(SimTime, u64, Event)> {
        let mut pending: Vec<Scheduled> = Vec::with_capacity(self.len);
        for (b, dirty) in self.buckets.iter_mut().zip(&mut self.dirty) {
            pending.append(b);
            *dirty = false;
        }
        pending.extend(self.far.drain());
        self.len = 0;
        self.cursor = 0;
        pending
            .into_iter()
            .map(|s| (s.time, s.seq, self.take(s.payload)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), Event::JobArrival(3));
        q.schedule(SimTime(10), Event::JobArrival(1));
        q.schedule(SimTime(20), Event::JobArrival(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t.0).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5), Event::JobArrival(1));
        q.schedule(SimTime(5), Event::JobArrival(2));
        q.schedule(SimTime(5), Event::JobArrival(3));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::JobArrival(i) => i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime(1), Event::SchedulerWakeup(0));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn crosses_window_boundaries_in_order() {
        let mut q = EventQueue::new();
        // Events spread over several windows, pushed shuffled, with ties
        // straddling an exact window boundary.
        let times = [
            WINDOW * 3 + 7,
            5,
            WINDOW,
            WINDOW - 1,
            WINDOW * 2 + BUCKET_WIDTH,
            WINDOW,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), Event::JobArrival(i as u32));
        }
        let order: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| match e {
                Event::JobArrival(i) => (t.0, i),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            order,
            vec![
                (5, 1),
                (WINDOW - 1, 3),
                (WINDOW, 2),
                (WINDOW, 5),
                (WINDOW * 2 + BUCKET_WIDTH, 4),
                (WINDOW * 3 + 7, 0),
            ]
        );
    }

    #[test]
    fn interleaved_push_pop_at_current_time() {
        // The engine schedules zero-delay events at the time it just
        // popped; they must come out before anything later.
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), Event::JobArrival(0));
        q.schedule(SimTime(200), Event::JobArrival(1));
        let (t, _) = q.pop().expect("first");
        assert_eq!(t.0, 100);
        q.schedule(SimTime(100), Event::JobArrival(2));
        q.schedule(SimTime(150), Event::JobArrival(3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t.0).collect();
        assert_eq!(order, vec![100, 150, 200]);
    }

    #[test]
    fn bucket_edge_event_lands_in_the_next_bucket() {
        // t = BUCKET_WIDTH is the first instant of bucket 1 and
        // t = BUCKET_WIDTH - 1 the last of bucket 0; an exact-edge event
        // must not be misfiled into the earlier bucket (or pop late).
        let mut q = EventQueue::new();
        q.schedule(SimTime(BUCKET_WIDTH), Event::JobArrival(0));
        q.schedule(SimTime(BUCKET_WIDTH - 1), Event::JobArrival(1));
        q.schedule(SimTime(BUCKET_WIDTH + 1), Event::JobArrival(2));
        // Same-edge tie: FIFO after the first edge event.
        q.schedule(SimTime(BUCKET_WIDTH), Event::JobArrival(3));
        let order: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| match e {
                Event::JobArrival(i) => (t.0, i),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            order,
            vec![
                (BUCKET_WIDTH - 1, 1),
                (BUCKET_WIDTH, 0),
                (BUCKET_WIDTH, 3),
                (BUCKET_WIDTH + 1, 2),
            ]
        );
    }

    #[test]
    fn window_edge_event_goes_far_and_comes_back() {
        // t = WINDOW - 1 is the last near instant and t = WINDOW the first
        // far one; the pop sequence must cross the edge seamlessly.
        let mut q = EventQueue::new();
        q.schedule(SimTime(WINDOW), Event::JobArrival(0));
        q.schedule(SimTime(WINDOW - 1), Event::JobArrival(1));
        assert_eq!(q.len(), 2);
        let (t1, e1) = q.pop().expect("near event");
        assert_eq!((t1.0, e1), (WINDOW - 1, Event::JobArrival(1)));
        let (t2, e2) = q.pop().expect("far event after window advance");
        assert_eq!((t2.0, e2), (WINDOW, Event::JobArrival(0)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn window_advance_drains_far_heap_in_fifo_time_order() {
        // Far events spread over two later windows, pushed out of order
        // with same-time ties: each window advance must surface exactly
        // the events of the next window, (time, seq)-FIFO, and keep the
        // rest in the heap for the advance after that.
        let last_bucket = WINDOW + BUCKET_WIDTH * (NUM_BUCKETS as u64 - 1);
        let mut q = EventQueue::new();
        q.schedule(SimTime(WINDOW * 2 + 5), Event::JobArrival(0));
        q.schedule(SimTime(WINDOW + 5), Event::JobArrival(1));
        q.schedule(SimTime(WINDOW + 5), Event::JobArrival(2));
        q.schedule(SimTime(WINDOW * 2 + 5), Event::JobArrival(3));
        q.schedule(SimTime(last_bucket), Event::JobArrival(4));
        let order: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| match e {
                Event::JobArrival(i) => (t.0, i),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            order,
            vec![
                (WINDOW + 5, 1),
                (WINDOW + 5, 2),
                (last_bucket, 4),
                (WINDOW * 2 + 5, 0),
                (WINDOW * 2 + 5, 3),
            ]
        );
    }

    #[test]
    fn non_monotone_pushes_rebase() {
        // Test drivers may schedule before the current window; the queue
        // rewinds instead of misordering.
        let mut q = EventQueue::new();
        q.schedule(SimTime(WINDOW * 5), Event::JobArrival(0));
        let _ = q.pop();
        q.schedule(SimTime(3), Event::JobArrival(1));
        q.schedule(SimTime(WINDOW * 6), Event::JobArrival(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t.0).collect();
        assert_eq!(order, vec![3, WINDOW * 6]);
    }
}
