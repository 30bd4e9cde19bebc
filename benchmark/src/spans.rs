//! Spans the benchmark records around its own calls into the program, and
//! the interval arithmetic that turns them into per-layer time.
//!
//! Spans go into the repo's [`TraceSink`] on [`Clock::Wall`] — the same
//! sink and epoch the program's own wall events use, so the two can be
//! laid over each other. Every span carries `id`, `op` (shared by all
//! spans of one operation) and `parent` (0 for an operation's root).

use trace::{ArgValue, Clock, Event, Phase, TraceSink, Track};

/// Perfetto process id of the benchmark's own spans (the repo's `pids`
/// stop at 5).
pub const BENCH_PID: u32 = 9;
const CAT: &str = "bench";

pub struct Recorder {
    sink: TraceSink,
    next_id: u64,
    /// Open spans, innermost last.
    stack: Vec<u64>,
    op: u64,
}

impl Recorder {
    pub fn new(sink: TraceSink) -> Recorder {
        sink.name_process(BENCH_PID, "benchmark (wall time)");
        sink.name_thread(Track::new(BENCH_PID, 0), "operations");
        Recorder {
            sink,
            next_id: 1,
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn sink(&self) -> &TraceSink {
        &self.sink
    }

    /// Runs `f` as the root span of a new operation; returns the op id.
    pub fn operation<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> (u64, T) {
        assert!(self.stack.is_empty(), "operations do not nest");
        self.op += 1;
        let op = self.op;
        (op, self.span(name, f))
    }

    /// Runs `f` inside a span that is a child of the innermost open one.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        let start = self.sink.wall_now();
        let out = f(self);
        let end = self.sink.wall_now();
        self.stack.pop();
        self.sink.span(
            Clock::Wall,
            Track::new(BENCH_PID, 0),
            name,
            CAT,
            start,
            end,
            vec![
                ("id", id.into()),
                ("op", self.op.into()),
                ("parent", parent.into()),
            ],
        );
        out
    }
}

/// A closed interval of wall seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    pub start: f64,
    pub end: f64,
}

impl Interval {
    pub fn len(self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// One benchmark span read back from the sink.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpan {
    pub id: u64,
    pub op: u64,
    pub parent: u64,
    pub name: String,
    pub at: Interval,
}

/// An unsigned integer argument of an event.
pub fn uint_arg(e: &Event, key: &str) -> Option<u64> {
    e.args
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            ArgValue::UInt(u) => Some(*u),
            ArgValue::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        })
}

/// The wall interval of a span event, in seconds.
pub fn interval_of(e: &Event) -> Option<Interval> {
    match e.phase {
        Phase::Span { dur_us } if e.clock == Clock::Wall => Some(Interval {
            start: e.ts_us / 1e6,
            end: (e.ts_us + dur_us) / 1e6,
        }),
        _ => None,
    }
}

/// The benchmark's own spans among `events`.
pub fn bench_spans(events: &[Event]) -> Vec<BenchSpan> {
    events
        .iter()
        .filter(|e| e.cat == CAT && e.track.pid == BENCH_PID)
        .filter_map(|e| {
            Some(BenchSpan {
                id: uint_arg(e, "id")?,
                op: uint_arg(e, "op")?,
                parent: uint_arg(e, "parent")?,
                name: e.name.clone(),
                at: interval_of(e)?,
            })
        })
        .collect()
}

/// Wall intervals of the program's own span events of the given
/// categories (`pipeline` stage spans, barrier `phase` spans, `testrun`
/// grid cells), optionally filtered by name.
pub fn program_intervals(
    events: &[Event],
    cats: &[&str],
    keep: impl Fn(&Event) -> bool,
) -> Vec<Interval> {
    events
        .iter()
        .filter(|e| e.track.pid != BENCH_PID && cats.contains(&e.cat) && keep(e))
        .filter_map(interval_of)
        .collect()
}

/// Total length covered by `intervals` inside `within`: overlapping and
/// nested intervals count once, parts outside `within` not at all.
pub fn covered(within: Interval, intervals: &[Interval]) -> f64 {
    let mut clipped: Vec<Interval> = intervals
        .iter()
        .map(|i| Interval {
            start: i.start.max(within.start),
            end: i.end.min(within.end),
        })
        .filter(|i| i.end > i.start)
        .collect();
    clipped.sort_by(|a, b| a.start.total_cmp(&b.start));
    let mut total = 0.0;
    let mut open: Option<Interval> = None;
    for i in clipped {
        match &mut open {
            Some(cur) if i.start <= cur.end => cur.end = cur.end.max(i.end),
            _ => {
                if let Some(cur) = open.take() {
                    total += cur.len();
                }
                open = Some(i);
            }
        }
    }
    total + open.map_or(0.0, Interval::len)
}

/// A span's self time: its duration minus the part its direct children
/// cover.
pub fn self_time(span: &BenchSpan, all: &[BenchSpan]) -> f64 {
    let children: Vec<Interval> = all
        .iter()
        .filter(|s| s.parent == span.id)
        .map(|s| s.at)
        .collect();
    span.at.len() - covered(span.at, &children)
}

/// For each operation root, how far the self times of the spans under it
/// are from summing to the root's duration — the worst such gap in
/// seconds. Zero (to rounding) when children nest without overlapping.
pub fn worst_self_time_gap(all: &[BenchSpan]) -> f64 {
    all.iter()
        .filter(|s| s.parent == 0)
        .map(|root| {
            let sum: f64 = all
                .iter()
                .filter(|s| s.op == root.op)
                .map(|s| self_time(s, all))
                .sum();
            (sum - root.at.len()).abs()
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(start: f64, end: f64) -> Interval {
        Interval { start, end }
    }

    fn span(id: u64, parent: u64, start: f64, end: f64) -> BenchSpan {
        BenchSpan {
            id,
            op: 1,
            parent,
            name: format!("s{id}"),
            at: iv(start, end),
        }
    }

    #[test]
    fn union_counts_overlap_and_nesting_once() {
        let within = iv(0.0, 10.0);
        // Disjoint.
        assert_eq!(covered(within, &[iv(1.0, 2.0), iv(4.0, 6.0)]), 3.0);
        // Overlapping: [1,5] ∪ [3,7] = 6.
        assert_eq!(covered(within, &[iv(3.0, 7.0), iv(1.0, 5.0)]), 6.0);
        // Nested: the inner one adds nothing.
        assert_eq!(covered(within, &[iv(1.0, 9.0), iv(2.0, 3.0)]), 8.0);
        // Touching intervals merge without double counting.
        assert_eq!(covered(within, &[iv(1.0, 2.0), iv(2.0, 3.0)]), 2.0);
        assert_eq!(covered(within, &[]), 0.0);
    }

    #[test]
    fn union_is_clipped_to_the_enclosing_span() {
        let within = iv(2.0, 4.0);
        assert_eq!(covered(within, &[iv(0.0, 3.0), iv(3.5, 9.0)]), 1.5);
        assert_eq!(covered(within, &[iv(5.0, 6.0)]), 0.0);
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        // root [0,10] ⊃ a [1,4] ⊃ a1 [2,3]; root ⊃ b [6,9].
        let all = vec![
            span(1, 0, 0.0, 10.0),
            span(2, 1, 1.0, 4.0),
            span(3, 2, 2.0, 3.0),
            span(4, 1, 6.0, 9.0),
        ];
        assert_eq!(self_time(&all[0], &all), 4.0);
        assert_eq!(self_time(&all[1], &all), 2.0);
        assert_eq!(self_time(&all[2], &all), 1.0);
        assert_eq!(self_time(&all[3], &all), 3.0);
        // Nested, non-overlapping children: self times sum to the root.
        assert!(worst_self_time_gap(&all) < 1e-12);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two children overlapping on [3,5].
        let all = vec![
            span(1, 0, 0.0, 10.0),
            span(2, 1, 1.0, 5.0),
            span(3, 1, 3.0, 8.0),
        ];
        assert_eq!(self_time(&all[0], &all), 3.0);
        // The overlap is then counted by both children, so the sum
        // exceeds the root by its length — which the gap reports.
        assert!((worst_self_time_gap(&all) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_round_trips_through_the_sink() {
        let mut rec = Recorder::new(TraceSink::enabled());
        let (op, _) = rec.operation("root", |r| {
            r.span("child", |r| r.span("grandchild", |_| ()));
            r.span("sibling", |_| ());
        });
        let spans = bench_spans(&rec.sink().events());
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.op == op));
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("root").parent, 0);
        assert_eq!(by_name("child").parent, by_name("root").id);
        assert_eq!(by_name("grandchild").parent, by_name("child").id);
        assert_eq!(by_name("sibling").parent, by_name("root").id);
        assert!(worst_self_time_gap(&spans) < 1e-9);
    }
}
