//! Bounded simulation tracing.
//!
//! A [`Tracer`] records timestamped, categorized events into a ring
//! buffer. Tracing is off by default (a disabled tracer costs one branch
//! per call site) and is enabled per run for debugging or demonstration —
//! e.g. `run_experiment --trace` prints the tail of the management
//! plane's activity.

use crate::time::SimTime;
use std::collections::VecDeque;
use std::fmt;

/// Severity of a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// High-volume detail (per-request steps).
    Debug,
    /// Notable occurrences (reconfigurations, failures detected).
    Info,
    /// Abnormal events (request failures, rejected operations).
    Warn,
}

impl fmt::Display for TraceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TraceLevel::Debug => "DEBUG",
            TraceLevel::Info => "INFO ",
            TraceLevel::Warn => "WARN ",
        })
    }
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub time: SimTime,
    /// Severity.
    pub level: TraceLevel,
    /// Subsystem tag (e.g. `"manager"`, `"request"`, `"legacy"`).
    pub category: &'static str,
    /// Rendered message.
    pub message: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>10}] {} {:<8} {}",
            self.time.to_string(),
            self.level,
            self.category,
            self.message
        )
    }
}

/// Ring-buffer tracer.
#[derive(Clone, Debug)]
pub struct Tracer {
    enabled: bool,
    min_level: TraceLevel,
    capacity: usize,
    events: VecDeque<TraceEvent>,
    recorded: u64,
    dropped: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            min_level: TraceLevel::Info,
            capacity: 0,
            events: VecDeque::new(),
            recorded: 0,
            dropped: 0,
        }
    }

    /// A tracer keeping the last `capacity` events at or above
    /// `min_level`.
    pub fn enabled(capacity: usize, min_level: TraceLevel) -> Self {
        Tracer {
            enabled: true,
            min_level,
            capacity: capacity.max(1),
            events: VecDeque::with_capacity(capacity.min(4096)),
            recorded: 0,
            dropped: 0,
        }
    }

    /// True when events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event. `message` is only materialized when the tracer
    /// is enabled and the level passes the filter — pass a closure.
    pub fn record(
        &mut self,
        time: SimTime,
        level: TraceLevel,
        category: &'static str,
        message: impl FnOnce() -> String,
    ) {
        if !self.enabled || level < self.min_level {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            time,
            level,
            category,
            message: message(),
        });
        self.recorded += 1;
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Retained events of one category.
    pub fn category<'a>(&'a self, category: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events.iter().filter(move |e| e.category == category)
    }

    /// `(recorded, dropped)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.recorded, self.dropped)
    }

    /// Renders the retained events, one per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        if self.dropped > 0 {
            out.push_str(&format!("({} earlier events dropped)\n", self.dropped));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn disabled_tracer_records_nothing_and_skips_formatting() {
        let mut tr = Tracer::disabled();
        let mut called = false;
        tr.record(t(1), TraceLevel::Warn, "x", || {
            called = true;
            "msg".into()
        });
        assert!(!called, "message closure must not run when disabled");
        assert_eq!(tr.counters(), (0, 0));
        assert_eq!(tr.events().count(), 0);
    }

    #[test]
    fn level_filter_applies() {
        let mut tr = Tracer::enabled(10, TraceLevel::Info);
        tr.record(t(1), TraceLevel::Debug, "x", || "d".into());
        tr.record(t(2), TraceLevel::Info, "x", || "i".into());
        tr.record(t(3), TraceLevel::Warn, "x", || "w".into());
        let msgs: Vec<&str> = tr.events().map(|e| e.message.as_str()).collect();
        assert_eq!(msgs, vec!["i", "w"]);
    }

    #[test]
    fn ring_buffer_keeps_the_tail() {
        let mut tr = Tracer::enabled(3, TraceLevel::Debug);
        for i in 0..10 {
            tr.record(t(i), TraceLevel::Info, "x", || format!("e{i}"));
        }
        let msgs: Vec<&str> = tr.events().map(|e| e.message.as_str()).collect();
        assert_eq!(msgs, vec!["e7", "e8", "e9"]);
        assert_eq!(tr.counters(), (10, 7));
        assert!(tr.render().contains("7 earlier events dropped"));
    }

    #[test]
    fn category_filter() {
        let mut tr = Tracer::enabled(10, TraceLevel::Debug);
        tr.record(t(1), TraceLevel::Info, "manager", || "a".into());
        tr.record(t(2), TraceLevel::Info, "request", || "b".into());
        tr.record(t(3), TraceLevel::Info, "manager", || "c".into());
        assert_eq!(tr.category("manager").count(), 2);
        assert_eq!(tr.category("request").count(), 1);
    }

    #[test]
    fn rendering_includes_time_and_level() {
        let mut tr = Tracer::enabled(4, TraceLevel::Debug);
        tr.record(t(90), TraceLevel::Warn, "legacy", || {
            "server stopped".into()
        });
        let line = tr.render();
        assert!(line.contains("90.000s"), "{line}");
        assert!(line.contains("WARN"), "{line}");
        assert!(line.contains("legacy"), "{line}");
    }
}
