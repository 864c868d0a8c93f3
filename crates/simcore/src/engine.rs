//! The simulation driver: clock + event queue.
//!
//! [`Simulation`] is deliberately minimal — it owns the clock and the
//! event list and enforces the two kernel invariants:
//!
//! 1. the clock never moves backwards, and
//! 2. events cannot be scheduled in the past.
//!
//! Higher layers (the scheduler loop in `epa-sched`, the site runner in
//! `epa-sites`) pop events and mutate their own state; keeping the kernel
//! free of callbacks avoids borrow-checker contortions and keeps every
//! state transition explicit and testable.

use crate::event::EventQueue;
use crate::time::{SimDuration, SimTime};

/// A discrete-event simulation: a monotonic clock plus a stable event queue.
#[derive(Debug)]
pub struct Simulation<E> {
    now: SimTime,
    queue: EventQueue<E>,
    processed: u64,
    horizon: Option<SimTime>,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulation<E> {
    /// Creates a simulation starting at t = 0 with no horizon.
    #[must_use]
    pub fn new() -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            processed: 0,
            horizon: None,
        }
    }

    /// Creates a simulation that stops delivering events past `horizon`.
    #[must_use]
    pub fn with_horizon(horizon: SimTime) -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            processed: 0,
            horizon: Some(horizon),
        }
    }

    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The configured horizon, if any.
    #[must_use]
    pub fn horizon(&self) -> Option<SimTime> {
        self.horizon
    }

    /// Number of events delivered so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock — scheduling into
    /// the past is always a logic error in the caller.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        self.queue.push(at, event);
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Time of the next pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Delivers the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is empty or the next event lies beyond
    /// the horizon. In the horizon case the clock is advanced to the horizon
    /// so that final-state accounting (energy integration, utilization)
    /// covers the full simulated interval, and the remaining events are
    /// dropped.
    pub fn next_event(&mut self) -> Option<(SimTime, E)> {
        let t = self.queue.peek_time()?;
        if let Some(h) = self.horizon {
            if t > h {
                self.now = self.now.max(h);
                self.queue.clear();
                return None;
            }
        }
        let (t, e) = self.queue.pop().expect("peeked, so pop must succeed");
        debug_assert!(t >= self.now);
        self.now = t;
        self.processed += 1;
        Some((t, e))
    }

    /// Read-only access to the event queue (snapshot encoding: the
    /// caller serializes pending entries and the seq counter).
    #[must_use]
    pub fn queue(&self) -> &EventQueue<E> {
        &self.queue
    }

    /// Mutable access to the event queue (snapshot restore: the caller
    /// clears it, rebuilds pending entries with
    /// [`EventQueue::push_with_seq`], and restores the seq counter).
    pub fn queue_mut(&mut self) -> &mut EventQueue<E> {
        &mut self.queue
    }

    /// Overwrites the clock and the processed-event count (snapshot
    /// restore). This may rewind — restoring a snapshot into a
    /// freshly-built simulation is the one legitimate case where the
    /// monotonic-clock invariant resets.
    pub fn restore_clock(&mut self, now: SimTime, processed: u64) {
        self.now = now;
        self.processed = processed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
    }

    #[test]
    fn clock_follows_events() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_secs(10.0), Ev::Tick(1));
        sim.schedule_at(SimTime::from_secs(5.0), Ev::Tick(0));
        let (t0, e0) = sim.next_event().unwrap();
        assert_eq!(t0.as_secs(), 5.0);
        assert_eq!(e0, Ev::Tick(0));
        assert_eq!(sim.now().as_secs(), 5.0);
        let (t1, _) = sim.next_event().unwrap();
        assert_eq!(t1.as_secs(), 10.0);
        assert_eq!(sim.events_processed(), 2);
        assert!(sim.next_event().is_none());
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_secs(100.0), Ev::Tick(0));
        sim.next_event().unwrap();
        sim.schedule_in(SimDuration::from_secs(50.0), Ev::Tick(1));
        let (t, _) = sim.next_event().unwrap();
        assert_eq!(t.as_secs(), 150.0);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn past_scheduling_panics() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_secs(10.0), Ev::Tick(0));
        sim.next_event().unwrap();
        sim.schedule_at(SimTime::from_secs(5.0), Ev::Tick(1));
    }

    #[test]
    fn horizon_stops_delivery_and_advances_clock() {
        let mut sim = Simulation::with_horizon(SimTime::from_secs(100.0));
        sim.schedule_at(SimTime::from_secs(50.0), Ev::Tick(0));
        sim.schedule_at(SimTime::from_secs(150.0), Ev::Tick(1));
        assert!(sim.next_event().is_some());
        assert!(sim.next_event().is_none());
        assert_eq!(sim.now().as_secs(), 100.0);
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn event_exactly_at_horizon_is_delivered() {
        let mut sim = Simulation::with_horizon(SimTime::from_secs(100.0));
        sim.schedule_at(SimTime::from_secs(100.0), Ev::Tick(0));
        assert!(sim.next_event().is_some());
    }
}
