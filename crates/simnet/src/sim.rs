//! A deterministic virtual-time event queue.
//!
//! The simulator is generic over the embedder's event type: the driver
//! loop pops `(time, event)` pairs and dispatches them itself, which
//! keeps the borrow checker out of the way (no boxed callbacks capturing
//! the world). Events at the same instant fire in insertion order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time_ms: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time_ms == other.time_ms && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on (time, seq).
        other
            .time_ms
            .cmp(&self.time_ms)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The virtual-time event queue.
pub struct Simulator<E> {
    now_ms: u64,
    seq: u64,
    queue: BinaryHeap<Entry<E>>,
    /// Total events dispatched (diagnostics / benches).
    pub dispatched: u64,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// An empty simulator at time zero.
    pub fn new() -> Simulator<E> {
        Simulator {
            now_ms: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            dispatched: 0,
        }
    }

    /// Drop every pending event and go back to time zero, as a new
    /// simulator, keeping the queue's storage.
    pub fn clear(&mut self) {
        self.now_ms = 0;
        self.seq = 0;
        self.queue.clear();
        self.dispatched = 0;
    }

    /// Current virtual time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Schedule `event` to fire `delay_ms` from now.
    pub fn schedule(&mut self, delay_ms: u64, event: E) {
        self.schedule_at(self.now_ms + delay_ms, event);
    }

    /// Schedule `event` at an absolute virtual time (clamped to now).
    pub fn schedule_at(&mut self, time_ms: u64, event: E) {
        let time_ms = time_ms.max(self.now_ms);
        self.queue.push(Entry {
            time_ms,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Pop the next event, advancing the clock to its firing time.
    /// (Named like, but deliberately not, `Iterator::next` — iterating
    /// borrows `&mut self` per event, which an `Iterator` impl cannot.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(u64, E)> {
        let entry = self.queue.pop()?;
        debug_assert!(entry.time_ms >= self.now_ms, "time went backwards");
        self.now_ms = entry.time_ms;
        self.dispatched += 1;
        Some((entry.time_ms, entry.event))
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// True when no events remain.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cleared_simulator_runs_as_a_new_one() {
        fn run(sim: &mut Simulator<&'static str>) -> (Vec<(u64, &'static str)>, u64, u64) {
            sim.schedule(5, "b");
            sim.schedule_at(5, "a");
            sim.schedule(1, "c");
            let mut fired = Vec::new();
            while let Some(next) = sim.next() {
                fired.push(next);
            }
            (fired, sim.now_ms(), sim.dispatched)
        }
        let mut reused = Simulator::new();
        reused.schedule(40, "left over");
        reused.next();
        reused.schedule(7, "dropped");
        reused.clear();
        assert!(reused.is_idle());
        assert_eq!(run(&mut reused), run(&mut Simulator::new()));
    }

    #[test]
    fn fires_in_time_order() {
        let mut sim = Simulator::new();
        sim.schedule(30, "c");
        sim.schedule(10, "a");
        sim.schedule(20, "b");
        assert_eq!(sim.next(), Some((10, "a")));
        assert_eq!(sim.now_ms(), 10);
        assert_eq!(sim.next(), Some((20, "b")));
        assert_eq!(sim.next(), Some((30, "c")));
        assert_eq!(sim.next(), None);
        assert_eq!(sim.dispatched, 3);
    }

    #[test]
    fn same_instant_fifo() {
        let mut sim = Simulator::new();
        for i in 0..100 {
            sim.schedule(5, i);
        }
        for i in 0..100 {
            assert_eq!(sim.next(), Some((5, i)));
        }
    }

    #[test]
    fn relative_to_advanced_clock() {
        let mut sim = Simulator::new();
        sim.schedule(10, 1);
        sim.next();
        sim.schedule(5, 2);
        assert_eq!(sim.next(), Some((15, 2)));
    }

    #[test]
    fn schedule_at_past_clamps() {
        let mut sim = Simulator::new();
        sim.schedule(10, 1);
        sim.next();
        sim.schedule_at(3, 2); // in the past → fires now
        assert_eq!(sim.next(), Some((10, 2)));
    }

    #[test]
    fn interleaved_scheduling() {
        // An event chain: each event schedules the next.
        let mut sim = Simulator::new();
        sim.schedule(1, 0u64);
        let mut fired = Vec::new();
        while let Some((t, ev)) = sim.next() {
            fired.push((t, ev));
            if ev < 5 {
                sim.schedule(2, ev + 1);
            }
        }
        assert_eq!(fired, vec![(1, 0), (3, 1), (5, 2), (7, 3), (9, 4), (11, 5)]);
    }
}
