//! What one run is compared on: everything it computed and everything the
//! virtual clock recorded, with the two comparisons the harnesses make —
//! the same data, and bit for bit the same run.

use engine::{ClockFilter, Context, FaultCounters, MemCounters, StageMetrics};

/// What one run is compared on.
#[derive(Debug)]
pub struct Observed {
    /// What the program or workload returned, rendered (`f64`'s `Debug` is
    /// a shortest round-trip form: distinct bits render distinctly).
    pub results: String,
    /// Per stage, a [`byte_row`].
    pub byte_table: Vec<String>,
    /// Per stage, shuffle bytes fetched. A memory budget may move them: a
    /// spilled co-partitioned side is read from local disk instead.
    pub shuffle_read: Vec<u64>,
    /// Every job's and stage's metrics: timings, task durations, placements.
    pub jobs: String,
    pub clock_bits: u64,
    /// The virtual-clock slice of the trace, when tracing was on.
    pub virtual_trace: Option<String>,
    /// The simulator's own books: IO counters and the utilization trace.
    pub sim_books: String,
    pub faults: FaultCounters,
    pub mem: MemCounters,
}

impl Observed {
    pub fn of(ctx: &Context, results: String) -> Self {
        let (stages, sim, sink) = (ctx.all_stages(), ctx.sim(), ctx.trace_sink());
        let trace = || sink.chrome_json_filtered(ClockFilter::VirtualOnly);
        Observed {
            results,
            byte_table: stages.iter().map(|m| byte_row(m)).collect(),
            shuffle_read: stages.iter().map(|m| m.shuffle_read_bytes).collect(),
            jobs: format!("{:?}", ctx.jobs()),
            clock_bits: ctx.clock().to_bits(),
            virtual_trace: sink.is_enabled().then(trace),
            sim_books: format!("{:?} {:?}", sim.io_stats(), sim.trace().points()),
            faults: ctx.fault_counters(),
            mem: ctx.mem_counters(),
        }
    }

    /// Same results and byte tables — the shuffle bytes fetched too, unless
    /// a budget may have moved them.
    pub fn assert_same_data(&self, other: &Observed, reads_too: bool, what: &str) {
        assert_eq!(self.results, other.results, "{what}: results");
        assert_eq!(self.byte_table, other.byte_table, "{what}: byte table");
        if reads_too {
            assert_eq!(self.shuffle_read, other.shuffle_read, "{what}: reads");
        }
    }

    /// Bit-identical in everything the run produced, the trace compared
    /// where both runs kept one.
    pub fn assert_identical(&self, other: &Observed, what: &str) {
        self.assert_same_data(other, true, what);
        assert_eq!(self.jobs, other.jobs, "{what}: job and stage metrics");
        assert_eq!(self.clock_bits, other.clock_bits, "{what}: clock");
        if let (Some(a), Some(b)) = (&self.virtual_trace, &other.virtual_trace) {
            assert_eq!(a, b, "{what}: virtual trace");
        }
        assert_eq!(self.sim_books, other.sim_books, "{what}: simulator books");
        assert_eq!(self.faults, other.faults, "{what}: injected faults");
        assert_eq!(self.mem, other.mem, "{what}: memory manager");
    }
}

/// Job, name, kind, tasks, records and bytes in and out, shuffle bytes
/// written.
fn byte_row(m: &StageMetrics) -> String {
    let (job, name, kind, tasks) = (m.job_id, &m.name, m.kind, m.num_tasks);
    let input = (m.input_records, m.input_bytes);
    let output = (m.output_records, m.output_bytes);
    let written = m.shuffle_write_bytes;
    format!("j{job} {name} {kind:?} tasks={tasks} in={input:?} out={output:?} w={written}")
}
