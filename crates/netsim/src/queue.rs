//! The indexed event queue.
//!
//! A thin wrapper over a binary heap that imposes the *total* order
//! `(time, seq)`: `seq` is a monotone counter stamped at push, so events
//! scheduled for the same instant pop in the order they were scheduled.
//! That tie-break is what makes simulations built on the queue
//! bit-deterministic — a plain `f64`-keyed heap reorders equal-time events
//! arbitrarily as the heap's internal layout shifts.
//!
//! Push and pop are `O(log n)`. Events per second is a host rate, so it
//! is measured where host wall-clock is — `benchmark/`'s
//! `netsim.queue_events_per_s` drive, a push/pop churn at
//! simulation-realistic sizes — not asserted here; the tests hold the
//! order, and doc-sync holds the event counts of the figures built on it.

use std::collections::BinaryHeap;

/// One scheduled event, as returned by [`EventQueue::pop`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scheduled<T> {
    /// The time the event was scheduled for.
    pub time: f64,
    /// Its sequence stamp: unique, increasing in push order.
    pub seq: u64,
    /// The payload.
    pub item: T,
}

/// Heap entry. Ordering ignores the payload entirely: time first, then the
/// sequence stamp, both reversed so the `BinaryHeap` max-heap pops the
/// earliest event.
struct Entry<T> {
    time: f64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Finite times are enforced at push, so `total_cmp` is their
        // numeric order.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue with a stable `(time, seq)` tie-break.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
    pushes: u64,
    pops: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            pushes: 0,
            pops: 0,
        }
    }

    /// An empty queue with room for `cap` events before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            pushes: 0,
            pops: 0,
        }
    }

    /// Schedules `item` at `time` and returns its sequence stamp.
    ///
    /// # Panics
    /// Panics on a non-finite time — NaN would poison the heap order.
    pub fn push(&mut self, time: f64, item: T) -> u64 {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushes += 1;
        self.heap.push(Entry { time, seq, item });
        seq
    }

    /// Removes and returns the earliest event (ties in push order).
    pub fn pop(&mut self) -> Option<Scheduled<T>> {
        self.heap.pop().map(|e| {
            self.pops += 1;
            Scheduled {
                time: e.time,
                seq: e.seq,
                item: e.item,
            }
        })
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// The earliest pending event's time and payload, without removing it.
    pub fn peek(&self) -> Option<(f64, &T)> {
        self.heap.peek().map(|e| (e.time, &e.item))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events pushed over the queue's lifetime.
    pub fn total_pushed(&self) -> u64 {
        self.pushes
    }

    /// Total events popped over the queue's lifetime.
    pub fn total_popped(&self) -> u64 {
        self.pops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|s| s.item)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn equal_times_pop_in_push_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(5.0, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.item)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(10.0, 'x');
        q.push(1.0, 'a');
        assert_eq!(q.pop().unwrap().item, 'a');
        q.push(5.0, 'm');
        q.push(5.0, 'n');
        assert_eq!(q.pop().unwrap().item, 'm');
        q.push(2.0, 'b');
        assert_eq!(q.pop().unwrap().item, 'b');
        assert_eq!(q.pop().unwrap().item, 'n');
        assert_eq!(q.pop().unwrap().item, 'x');
        assert!(q.pop().is_none());
    }

    #[test]
    fn counters_track_lifetime_totals() {
        let mut q = EventQueue::new();
        q.push(1.0, ());
        q.push(2.0, ());
        q.pop();
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_popped(), 1);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.peek_time(), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_times() {
        EventQueue::new().push(f64::NAN, ());
    }
}
