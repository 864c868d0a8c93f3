//! Wall-clock profiling scopes.
//!
//! The one deliberately non-deterministic piece of the observability
//! stack: scopes time real engine phases (event dispatch, scheduling,
//! allocation, metering) with `std::time::Instant`. The report is for
//! humans tuning hot paths — it must **never** enter a golden comparison
//! or a trace export, and nothing here feeds back into simulation state.
//!
//! When disabled (the default) [`Profiler::start`] returns `None` and
//! [`Profiler::stop`] is a no-op, so the engine pays one branch per scope.

use serde::Serialize;
use std::time::Instant;

/// The fixed set of profiled engine phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[repr(usize)]
pub enum Scope {
    /// The event-loop dispatch (everything per popped event).
    Dispatch = 0,
    /// Scheduling rounds (`try_schedule`).
    Schedule = 1,
    /// Node allocation inside job starts.
    Allocator = 2,
    /// Power metering / telemetry ticks.
    Meter = 3,
}

/// Number of scopes.
pub const N_SCOPES: usize = 4;

/// All scopes, in index order.
pub const ALL_SCOPES: [Scope; N_SCOPES] = [
    Scope::Dispatch,
    Scope::Schedule,
    Scope::Allocator,
    Scope::Meter,
];

impl Scope {
    /// Stable lowercase name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scope::Dispatch => "dispatch",
            Scope::Schedule => "schedule",
            Scope::Allocator => "allocator",
            Scope::Meter => "meter",
        }
    }
}

/// Aggregated timings for one scope.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ScopeStats {
    /// Completed start/stop pairs.
    pub calls: u64,
    /// Total wall time, nanoseconds.
    pub total_ns: u64,
    /// Longest single call, nanoseconds.
    pub max_ns: u64,
}

impl ScopeStats {
    /// Mean call duration in nanoseconds (0 with no calls).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// The frozen profile a finished run returns. Wall clock — excluded from
/// golden comparisons and trace exports by construction (nothing in the
/// deterministic export path touches it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ProfileReport {
    /// Whether profiling was enabled for the run.
    pub enabled: bool,
    /// Per-scope aggregates, indexed by [`Scope`].
    pub scopes: [ScopeStats; N_SCOPES],
}

impl ProfileReport {
    /// Stats for one scope.
    #[must_use]
    pub fn scope(&self, s: Scope) -> ScopeStats {
        self.scopes[s as usize]
    }

    /// Renders a small human-readable table (µs units).
    #[must_use]
    pub fn render(&self) -> String {
        if !self.enabled {
            return "profiling disabled\n".to_string();
        }
        let mut out = String::from("scope      calls      total_us    mean_us     max_us\n");
        for s in ALL_SCOPES {
            let st = self.scope(s);
            out.push_str(&format!(
                "{:<10} {:>9} {:>12.1} {:>10.3} {:>10.1}\n",
                s.name(),
                st.calls,
                st.total_ns as f64 / 1e3,
                st.mean_ns() / 1e3,
                st.max_ns as f64 / 1e3,
            ));
        }
        out
    }
}

/// The live scope timer.
#[derive(Debug)]
pub struct Profiler {
    enabled: bool,
    scopes: [ScopeStats; N_SCOPES],
}

impl Profiler {
    /// Creates a profiler; when `enabled` is false, start/stop are no-ops.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Profiler {
            enabled,
            scopes: [ScopeStats::default(); N_SCOPES],
        }
    }

    /// Whether timing is active.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Begins a timed region. `None` when disabled — callers pass the
    /// token straight to [`Profiler::stop`] either way.
    #[inline]
    #[must_use]
    pub fn start(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Ends a timed region started by [`Profiler::start`].
    #[inline]
    pub fn stop(&mut self, scope: Scope, token: Option<Instant>) {
        let Some(t0) = token else { return };
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let st = &mut self.scopes[scope as usize];
        st.calls += 1;
        st.total_ns += ns;
        st.max_ns = st.max_ns.max(ns);
    }

    /// Freezes the aggregates into a report.
    #[must_use]
    pub fn report(&self) -> ProfileReport {
        ProfileReport {
            enabled: self.enabled,
            scopes: self.scopes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::new(false);
        let t = p.start();
        assert!(t.is_none());
        p.stop(Scope::Dispatch, t);
        let r = p.report();
        assert!(!r.enabled);
        assert_eq!(r.scope(Scope::Dispatch).calls, 0);
        assert!(r.render().contains("disabled"));
    }

    #[test]
    fn enabled_profiler_aggregates() {
        let mut p = Profiler::new(true);
        for _ in 0..3 {
            let t = p.start();
            p.stop(Scope::Meter, t);
        }
        let r = p.report();
        assert_eq!(r.scope(Scope::Meter).calls, 3);
        assert!(r.scope(Scope::Meter).max_ns <= r.scope(Scope::Meter).total_ns);
        assert_eq!(r.scope(Scope::Dispatch).calls, 0);
        assert!(r.render().contains("meter"));
    }

    #[test]
    fn mean_is_total_over_calls() {
        let st = ScopeStats {
            calls: 4,
            total_ns: 1000,
            max_ns: 400,
        };
        assert!((st.mean_ns() - 250.0).abs() < 1e-9);
        assert_eq!(ScopeStats::default().mean_ns(), 0.0);
    }
}
