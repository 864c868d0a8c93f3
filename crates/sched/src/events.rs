//! The event loop: the clock, the runtime event queue and the one staged
//! arrival, merged into a single delivery order.
//!
//! Runtime events (job finishes, power ticks, boots, failures, DR
//! windows, …) wait in a stable `(time, seq)` [`EventQueue`]. Arrivals do
//! not: a [`JobSource`] already yields them in submit order, so the loop
//! holds only the next one and delivers it as soon as its submit time is
//! at or before the queue's head. At equal times every arrival therefore
//! precedes every runtime event — the order the engine produced when the
//! whole workload was pre-scheduled ahead of the runtime events.
//!
//! The loop keeps, and restore checks:
//! - the clock never moves backwards: no queued event and no staged
//!   arrival lies before it, and nothing is scheduled into the past;
//! - the staged arrival lies at or before the horizon (the first arrival
//!   past it ends the stream, so an unbounded generator never runs ahead
//!   of the horizon);
//! - no event past the horizon is delivered: the first one found there
//!   advances the clock to the horizon and drops the rest.

use epa_cluster::node::NodeId;
use epa_simcore::event::EventQueue;
use epa_simcore::snap::{SnapReader, SnapWriter, SnapshotError};
use epa_simcore::time::{SimDuration, SimTime};
use epa_workload::job::{Job, JobId};
use epa_workload::source::JobSource;

/// Runtime engine events, delivered in one `(t, seq)` order behind any
/// arrival due at the same instant.
#[derive(Debug)]
pub(crate) enum Ev {
    /// Job completion for the start with this token: after a kill +
    /// requeue the job runs under a new token, and the stale event must
    /// not complete it.
    Finish(JobId, u32),
    PowerTick,
    BootDone(NodeId),
    BudgetResize(f64),
    NodeFail,
    RepairDone(NodeId),
    /// A correlated failure-domain event: index into the pre-generated
    /// fault plan's `domain_events`.
    DomainFail(u32),
    /// A demand-response curtailment window opens: index into the grid
    /// config's contract events.
    GridDrStart(u32),
    /// The matching curtailment window closes.
    GridDrEnd(u32),
    /// A running job enters its `usize`-th phase. Token-stamped like
    /// `Finish`: a kill + requeue since scheduling makes it a no-op.
    PhaseChange(JobId, u32, usize),
    /// An idle node finishes its shutdown drain and powers off.
    ShutdownDone(NodeId),
}

impl Ev {
    /// Wire tags are part of the snapshot format: stable, append-only.
    /// Tag 0 (the retired queued arrival) is never reused.
    fn snapshot_into(&self, w: &mut SnapWriter) {
        match self {
            Ev::Finish(id, token) => {
                w.u8(1);
                w.u64(id.0);
                w.u32(*token);
            }
            Ev::PowerTick => w.u8(2),
            Ev::BootDone(n) => {
                w.u8(3);
                w.u32(n.0);
            }
            Ev::BudgetResize(watts) => {
                w.u8(4);
                w.f64(*watts);
            }
            Ev::NodeFail => w.u8(5),
            Ev::RepairDone(n) => {
                w.u8(6);
                w.u32(n.0);
            }
            Ev::DomainFail(idx) => {
                w.u8(7);
                w.u32(*idx);
            }
            Ev::GridDrStart(idx) => {
                w.u8(8);
                w.u32(*idx);
            }
            Ev::GridDrEnd(idx) => {
                w.u8(9);
                w.u32(*idx);
            }
            Ev::PhaseChange(id, token, phase) => {
                w.u8(10);
                w.u64(id.0);
                w.u32(*token);
                w.usize(*phase);
            }
            Ev::ShutdownDone(n) => {
                w.u8(11);
                w.u32(n.0);
            }
        }
    }

    fn restore_from(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.u8()? {
            1 => Ev::Finish(JobId(r.u64()?), r.u32()?),
            2 => Ev::PowerTick,
            3 => Ev::BootDone(NodeId(r.u32()?)),
            4 => Ev::BudgetResize(r.f64()?),
            5 => Ev::NodeFail,
            6 => Ev::RepairDone(NodeId(r.u32()?)),
            7 => Ev::DomainFail(r.u32()?),
            8 => Ev::GridDrStart(r.u32()?),
            9 => Ev::GridDrEnd(r.u32()?),
            10 => Ev::PhaseChange(JobId(r.u64()?), r.u32()?, r.usize()?),
            11 => Ev::ShutdownDone(NodeId(r.u32()?)),
            tag => {
                return Err(SnapshotError::Corrupt {
                    detail: format!("unknown engine event tag {tag}"),
                })
            }
        })
    }
}

/// What [`EventLoop::next`] delivers.
pub(crate) enum Next {
    /// The staged arrival, now due.
    Arrival(Job),
    /// A runtime event.
    Event(Ev),
}

/// The engine's clock, runtime event queue, staged arrival and source.
pub(crate) struct EventLoop {
    now: SimTime,
    /// Deliveries so far, arrivals included.
    processed: u64,
    horizon: SimTime,
    queue: EventQueue<Ev>,
    /// The next arrival, pulled one ahead of the clock; `None` once the
    /// source is exhausted or has yielded a submit past the horizon.
    arrival: Option<Job>,
    /// Pull-based arrival stream (materialized, lazy SWF, or lazy
    /// generator).
    source: Box<dyn JobSource>,
}

impl EventLoop {
    /// A loop at t = 0 with an empty queue and the source's first
    /// arrival staged.
    pub(crate) fn new(horizon: SimTime, source: Box<dyn JobSource>) -> Self {
        let mut events = EventLoop {
            now: SimTime::ZERO,
            processed: 0,
            horizon,
            queue: EventQueue::new(),
            arrival: None,
            source,
        };
        events.stage_arrival();
        events
    }

    /// The current simulation time (the time of the last delivery).
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Deliveries so far, arrivals included.
    pub(crate) fn processed(&self) -> u64 {
        self.processed
    }

    /// The arrival stream (its identity goes into the config
    /// fingerprint).
    pub(crate) fn source(&self) -> &dyn JobSource {
        self.source.as_ref()
    }

    /// Schedules a runtime event at an absolute time.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the clock: scheduling into the past
    /// is always a logic error in the caller.
    pub(crate) fn schedule_at(&mut self, at: SimTime, ev: Ev) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        self.queue.push(at, ev);
    }

    /// Schedules a runtime event `delay` after the clock.
    pub(crate) fn schedule_in(&mut self, delay: SimDuration, ev: Ev) {
        self.queue.push(self.now + delay, ev);
    }

    /// Time of the next delivery, if any (it may lie past the horizon).
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        let queued = self.queue.peek_time();
        match &self.arrival {
            Some(job) => Some(queued.map_or(job.submit, |t| t.min(job.submit))),
            None => queued,
        }
    }

    /// Delivers the next arrival or event, advancing the clock to its
    /// time. An arrival goes first when its submit is at or before the
    /// queue's head; delivering it stages the next one.
    ///
    /// Returns `None` when nothing is left or the next event lies beyond
    /// the horizon. In the horizon case the clock advances to the horizon,
    /// so final-state accounting (energy integration, utilization) covers
    /// the full simulated interval, and the remaining events are dropped.
    pub(crate) fn next(&mut self) -> Option<(SimTime, Next)> {
        let queued = self.queue.peek_time();
        if let Some(job) = self
            .arrival
            .take_if(|job| queued.is_none_or(|t| job.submit <= t))
        {
            self.now = job.submit;
            self.processed += 1;
            self.stage_arrival();
            return Some((self.now, Next::Arrival(job)));
        }
        if queued? > self.horizon {
            self.now = self.now.max(self.horizon);
            self.queue.clear();
            return None;
        }
        let (t, ev) = self.queue.pop()?;
        debug_assert!(t >= self.now);
        self.now = t;
        self.processed += 1;
        Some((t, Next::Event(ev)))
    }

    /// Pulls the next arrival from the source. The clock sits at the
    /// previous arrival's submit (or at zero), so the source's
    /// non-decreasing-submit contract is checked against it.
    fn stage_arrival(&mut self) {
        debug_assert!(self.arrival.is_none(), "one staged arrival at a time");
        let Some(job) = self.source.next_job() else {
            return;
        };
        assert!(
            job.submit >= self.now,
            "JobSource must yield non-decreasing submit times ({} after {})",
            job.submit,
            self.now,
        );
        if job.submit <= self.horizon {
            self.arrival = Some(job);
        }
    }

    /// The `sim` section: the queue's sequence counter and its entries in
    /// key order (the clock and delivery count sit in `meta`).
    pub(crate) fn snapshot_queue(&self, w: &mut SnapWriter) {
        w.u64(self.queue.seq());
        w.seq(&self.queue.sorted_entries(), |w, &(t, seq, ev)| {
            w.f64(t.as_secs());
            w.u64(seq);
            ev.snapshot_into(w);
        });
    }

    /// Restores the clock and delivery count read from `meta`, then the
    /// `sim` section. Rejects a queued event timed before the clock and
    /// one whose index `in_range` refuses.
    pub(crate) fn restore_queue(
        &mut self,
        r: &mut SnapReader<'_>,
        now: SimTime,
        processed: u64,
        in_range: impl Fn(&Ev) -> bool,
    ) -> Result<(), SnapshotError> {
        let seq = r.u64()?;
        let entries = r.seq(|r| Ok((r.time()?, r.u64()?, Ev::restore_from(r)?)))?;
        self.queue.clear();
        for (t, entry_seq, ev) in entries {
            if t < now {
                return Err(SnapshotError::Corrupt {
                    detail: format!("queued event {ev:?} at {t} lies before the clock {now}"),
                });
            }
            if !in_range(&ev) {
                return Err(SnapshotError::Corrupt {
                    detail: format!("queued event {ev:?} is out of range"),
                });
            }
            self.queue.push_with_seq(t, entry_seq, ev);
        }
        self.queue.set_seq(seq);
        self.now = now;
        self.processed = processed;
        Ok(())
    }

    /// The queued runtime events, in delivery order.
    pub(crate) fn queued(&self) -> impl Iterator<Item = &Ev> {
        self.queue.sorted_entries().into_iter().map(|(_, _, ev)| ev)
    }

    /// The `arrivals` section: the staged arrival and the source cursor.
    pub(crate) fn snapshot_arrivals(&self, w: &mut SnapWriter) {
        w.opt(self.arrival.as_ref(), |w, j| j.snapshot_into(w));
        self.source.snapshot_cursor(w);
    }

    /// Restores the `arrivals` section (after the clock). Rejects a
    /// staged arrival before the clock or past the horizon.
    pub(crate) fn restore_arrivals(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.arrival = r.opt(Job::restore_from)?;
        if let Some(job) = &self.arrival {
            if job.submit < self.now || job.submit > self.horizon {
                return Err(SnapshotError::Corrupt {
                    detail: format!(
                        "staged arrival {} at {} lies outside [{}, {}]",
                        job.id.0, job.submit, self.now, self.horizon
                    ),
                });
            }
        }
        // The constructor already pulled the first arrival from the fresh
        // source; cursor restore is written to tolerate that (absolute
        // for materialized/generator sources, replay-from-current for
        // the SWF stream).
        self.source.restore_cursor(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epa_workload::source::MaterializedSource;

    fn with_horizon(secs: f64) -> EventLoop {
        let source = Box::new(MaterializedSource::new(Vec::new()));
        EventLoop::new(SimTime::from_secs(secs), source)
    }

    fn boot(events: &mut EventLoop) -> Option<(f64, u32)> {
        match events.next()? {
            (t, Next::Event(Ev::BootDone(n))) => Some((t.as_secs(), n.0)),
            _ => panic!("only boot events are queued"),
        }
    }

    #[test]
    fn clock_follows_events() {
        let mut events = with_horizon(1e6);
        events.schedule_at(SimTime::from_secs(10.0), Ev::BootDone(NodeId(1)));
        events.schedule_at(SimTime::from_secs(5.0), Ev::BootDone(NodeId(0)));
        assert_eq!(boot(&mut events), Some((5.0, 0)));
        assert_eq!(events.now().as_secs(), 5.0);
        assert_eq!(boot(&mut events), Some((10.0, 1)));
        assert_eq!(events.processed(), 2);
        assert!(events.next().is_none());
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut events = with_horizon(1e6);
        events.schedule_at(SimTime::from_secs(100.0), Ev::BootDone(NodeId(0)));
        boot(&mut events).unwrap();
        events.schedule_in(SimDuration::from_secs(50.0), Ev::BootDone(NodeId(1)));
        assert_eq!(boot(&mut events), Some((150.0, 1)));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn past_scheduling_panics() {
        let mut events = with_horizon(1e6);
        events.schedule_at(SimTime::from_secs(10.0), Ev::BootDone(NodeId(0)));
        boot(&mut events).unwrap();
        events.schedule_at(SimTime::from_secs(5.0), Ev::BootDone(NodeId(1)));
    }

    #[test]
    fn horizon_stops_delivery_and_advances_clock() {
        let mut events = with_horizon(100.0);
        events.schedule_at(SimTime::from_secs(50.0), Ev::BootDone(NodeId(0)));
        events.schedule_at(SimTime::from_secs(150.0), Ev::BootDone(NodeId(1)));
        assert!(events.next().is_some());
        assert!(events.next().is_none());
        assert_eq!(events.now().as_secs(), 100.0);
        assert_eq!(events.peek_time(), None);
    }

    #[test]
    fn event_exactly_at_horizon_is_delivered() {
        let mut events = with_horizon(100.0);
        events.schedule_at(SimTime::from_secs(100.0), Ev::BootDone(NodeId(0)));
        assert!(events.next().is_some());
    }
}
