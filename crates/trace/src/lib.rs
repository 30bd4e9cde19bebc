//! Structured execution tracing for the CHOPPER reproduction.
//!
//! The engine's end-of-run [`StageMetrics`](../engine/metrics) aggregates
//! tell you *that* a run was slow; this crate records *why*: per-task
//! timelines, shuffle waves, executor-pool occupancy, and the autotune
//! loop's grid cells, model fits, and optimizer decisions. Every subsystem
//! emits into one shared [`TraceSink`], and the result exports as Chrome
//! `trace_event` JSON (viewable in Perfetto); [`summary`] holds the skew
//! and percentile statistics the engine's stage table is read by.
//!
//! Design constraints, in priority order:
//!
//! 1. **Zero perturbation.** Tracing only *observes*: all simulated
//!    timings come from `simcluster`'s virtual clock, which the sink never
//!    touches. A trace-enabled run and a trace-disabled run produce
//!    bit-identical stage timings (asserted by the engine's determinism
//!    suite).
//! 2. **Determinism.** Events carry one of two clocks. [`Clock::Virtual`]
//!    events are timestamped in simulated seconds and are emitted from
//!    deterministic code points in deterministic order — the virtual slice
//!    of a trace is bit-identical across host worker counts and across
//!    repeated runs. [`Clock::Wall`] events carry host time and are
//!    diagnostic only (pool occupancy, grid-cell wall cost).
//! 3. **Lock-cheap.** A disabled sink is a `None` — every record call is
//!    a single branch, no allocation, no lock. An enabled sink takes one
//!    short `Mutex` push per event; there is no per-event I/O and no
//!    formatting until export.
//!
//! Process-id conventions are in [`pids`]; they keep virtual tracks
//! (cluster, driver) and wall tracks (executor pool, autotuner) in
//! separate Perfetto process groups.

pub mod chrome;
pub mod summary;

pub use chrome::ClockFilter;
pub use summary::{percentile, skew_ratio, PoolCounters};

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Well-known Perfetto process ids, one per subsystem.
pub mod pids {
    /// Virtual clock: the simulated cluster (one thread per node core lane).
    pub const CLUSTER: u32 = 1;
    /// Virtual clock: the driver (stage spans, shuffle counters).
    pub const DRIVER: u32 = 2;
    /// Wall clock: the autotune loop (grid cells, fits, decisions).
    pub const AUTOTUNE: u32 = 3;
    /// Wall clock: the host executor pool. Track layout: tid 0 carries
    /// the pool's steal/idle counters, tid 2 the executor's one span per
    /// stage (category `pipeline`: the stage's tasks on the pool, first
    /// dispatch → last return).
    pub const POOL: u32 = 4;
    /// Virtual clock: the multi-tenant job server. Track layout: tid 0
    /// carries the admission-queue depth counter (sampled at every
    /// arrival, dispatch, completion, and rejection), and tid `1 + t`
    /// carries tenant `t`'s per-job spans (dispatch → completion, with
    /// job id, kind, and latency as args).
    pub const SERVER: u32 = 5;
}

/// Which clock an event's timestamp was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated seconds from `simcluster` — deterministic.
    Virtual,
    /// Host seconds since the sink was created — diagnostic only.
    Wall,
}

/// One `(pid, tid)` Perfetto track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Track {
    /// Perfetto process id (see [`pids`]).
    pub pid: u32,
    /// Perfetto thread id within the process.
    pub tid: u32,
}

impl Track {
    /// Shorthand constructor.
    pub const fn new(pid: u32, tid: u32) -> Track {
        Track { pid, tid }
    }
}

/// A typed event argument (rendered into the Chrome `args` object).
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (stage signatures, byte counts).
    UInt(u64),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::Int(v)
    }
}
impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::UInt(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::UInt(v as u64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::Float(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// Event shape, mirroring the Chrome `trace_event` phases this crate emits.
#[derive(Debug, Clone, PartialEq)]
pub enum Phase {
    /// A complete event (`ph: "X"`): duration in microseconds.
    Span {
        /// Duration in microseconds.
        dur_us: f64,
    },
    /// An instant event (`ph: "i"`, thread scope).
    Instant,
    /// A counter sample (`ph: "C"`).
    Counter {
        /// Sampled value.
        value: f64,
    },
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Clock the timestamp was read from.
    pub clock: Clock,
    /// Destination track.
    pub track: Track,
    /// Event name (Perfetto slice title / counter name).
    pub name: String,
    /// Category string (Perfetto filterable).
    pub cat: &'static str,
    /// Timestamp in microseconds on `clock`.
    pub ts_us: f64,
    /// Shape + payload.
    pub phase: Phase,
    /// Arguments, in insertion order.
    pub args: Vec<(&'static str, ArgValue)>,
}

struct Inner {
    events: Mutex<Vec<Event>>,
    /// `(pid, None)` names a process; `(pid, Some(tid))` names a thread.
    names: Mutex<BTreeMap<(u32, Option<u32>), String>>,
    epoch: Instant,
}

/// A cheap, cloneable handle to a shared event buffer.
///
/// `TraceSink::disabled()` (the default) is a no-op: every record call is
/// one branch. Clone the sink freely — all clones share the same buffer.
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(inner) => {
                let n = inner.events.lock().map(|e| e.len()).unwrap_or(0);
                write!(f, "TraceSink(enabled, {n} events)")
            }
            None => write!(f, "TraceSink(disabled)"),
        }
    }
}

impl TraceSink {
    /// An enabled sink with an empty buffer.
    pub fn enabled() -> TraceSink {
        TraceSink {
            inner: Some(Arc::new(Inner {
                events: Mutex::new(Vec::new()),
                names: Mutex::new(BTreeMap::new()),
                epoch: Instant::now(),
            })),
        }
    }

    /// A disabled (no-op) sink. Same as `TraceSink::default()`.
    pub fn disabled() -> TraceSink {
        TraceSink { inner: None }
    }

    /// Whether this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Host seconds since the sink was created (0.0 when disabled).
    pub fn wall_now(&self) -> f64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_secs_f64(),
            None => 0.0,
        }
    }

    /// Names a Perfetto process. Idempotent; later names win.
    pub fn name_process(&self, pid: u32, name: &str) {
        if let Some(inner) = &self.inner {
            lock_names(inner).insert((pid, None), name.to_string());
        }
    }

    /// Names a Perfetto thread. Idempotent; later names win.
    pub fn name_thread(&self, track: Track, name: &str) {
        if let Some(inner) = &self.inner {
            lock_names(inner).insert((track.pid, Some(track.tid)), name.to_string());
        }
    }

    /// Whether a thread name is already registered (lets emitters skip
    /// rebuilding label strings for known tracks).
    pub fn has_thread_name(&self, track: Track) -> bool {
        match &self.inner {
            Some(inner) => lock_names(inner).contains_key(&(track.pid, Some(track.tid))),
            None => false,
        }
    }

    /// Records a complete span from `start_s` to `end_s` (seconds on
    /// `clock`).
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &self,
        clock: Clock,
        track: Track,
        name: impl Into<String>,
        cat: &'static str,
        start_s: f64,
        end_s: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(inner) = &self.inner {
            let ts_us = start_s * 1e6;
            let dur_us = (end_s - start_s).max(0.0) * 1e6;
            lock_events(inner).push(Event {
                clock,
                track,
                name: name.into(),
                cat,
                ts_us,
                phase: Phase::Span { dur_us },
                args,
            });
        }
    }

    /// Records an instant event at `ts_s` (seconds on `clock`).
    pub fn instant(
        &self,
        clock: Clock,
        track: Track,
        name: impl Into<String>,
        cat: &'static str,
        ts_s: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(inner) = &self.inner {
            lock_events(inner).push(Event {
                clock,
                track,
                name: name.into(),
                cat,
                ts_us: ts_s * 1e6,
                phase: Phase::Instant,
                args,
            });
        }
    }

    /// Records a counter sample at `ts_s` (seconds on `clock`).
    pub fn counter(
        &self,
        clock: Clock,
        track: Track,
        name: impl Into<String>,
        cat: &'static str,
        ts_s: f64,
        value: f64,
    ) {
        if let Some(inner) = &self.inner {
            lock_events(inner).push(Event {
                clock,
                track,
                name: name.into(),
                cat,
                ts_us: ts_s * 1e6,
                phase: Phase::Counter { value },
                args: Vec::new(),
            });
        }
    }

    /// A snapshot of all recorded events, in insertion order.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            Some(inner) => lock_events(inner).clone(),
            None => Vec::new(),
        }
    }

    /// A snapshot of registered process/thread names.
    pub fn names(&self) -> BTreeMap<(u32, Option<u32>), String> {
        match &self.inner {
            Some(inner) => lock_names(inner).clone(),
            None => BTreeMap::new(),
        }
    }

    /// Exports the full trace (both clocks) as Chrome `trace_event` JSON.
    pub fn chrome_json(&self) -> String {
        chrome::render(&self.events(), &self.names(), ClockFilter::All)
    }

    /// Exports only the requested clock's slice of the trace. The
    /// [`ClockFilter::VirtualOnly`] slice is bit-deterministic across
    /// worker counts and repeated runs.
    pub fn chrome_json_filtered(&self, filter: ClockFilter) -> String {
        chrome::render(&self.events(), &self.names(), filter)
    }
}

fn lock_events(inner: &Inner) -> std::sync::MutexGuard<'_, Vec<Event>> {
    inner
        .events
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn lock_names(inner: &Inner) -> std::sync::MutexGuard<'_, BTreeMap<(u32, Option<u32>), String>> {
    inner
        .names
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_a_no_op() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        sink.span(
            Clock::Virtual,
            Track::new(1, 0),
            "s",
            "cat",
            0.0,
            1.0,
            vec![],
        );
        sink.instant(Clock::Wall, Track::new(1, 0), "i", "cat", 0.5, vec![]);
        sink.counter(Clock::Virtual, Track::new(1, 0), "c", "cat", 0.5, 3.0);
        assert!(sink.events().is_empty());
        assert_eq!(sink.wall_now(), 0.0);
    }

    #[test]
    fn clones_share_one_buffer() {
        let sink = TraceSink::enabled();
        let clone = sink.clone();
        clone.instant(Clock::Virtual, Track::new(2, 0), "x", "c", 1.0, vec![]);
        assert_eq!(sink.events().len(), 1);
        assert_eq!(sink.events()[0].ts_us, 1e6);
    }

    #[test]
    fn span_converts_seconds_to_microseconds() {
        let sink = TraceSink::enabled();
        sink.span(
            Clock::Virtual,
            Track::new(1, 3),
            "task",
            "task",
            2.5,
            4.0,
            vec![("node", 1u64.into())],
        );
        let ev = &sink.events()[0];
        assert_eq!(ev.ts_us, 2.5e6);
        match ev.phase {
            Phase::Span { dur_us } => assert!((dur_us - 1.5e6).abs() < 1e-6),
            _ => panic!("expected span"),
        }
    }

    #[test]
    fn negative_durations_clamp_to_zero() {
        let sink = TraceSink::enabled();
        sink.span(Clock::Wall, Track::new(4, 0), "w", "c", 2.0, 1.0, vec![]);
        match sink.events()[0].phase {
            Phase::Span { dur_us } => assert_eq!(dur_us, 0.0),
            _ => panic!("expected span"),
        }
    }

    #[test]
    fn names_register_idempotently() {
        let sink = TraceSink::enabled();
        let t = Track::new(1, 7);
        assert!(!sink.has_thread_name(t));
        sink.name_thread(t, "lane");
        sink.name_process(1, "cluster");
        assert!(sink.has_thread_name(t));
        sink.name_thread(t, "lane2");
        assert_eq!(sink.names()[&(1, Some(7))], "lane2");
        assert_eq!(sink.names()[&(1, None)], "cluster");
    }

    #[test]
    fn wall_clock_advances() {
        let sink = TraceSink::enabled();
        let a = sink.wall_now();
        let b = sink.wall_now();
        assert!(b >= a);
    }
}
