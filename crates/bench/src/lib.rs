//! Shared harness for regenerating the CHOPPER paper's tables and figures.
//!
//! The `repro` binary (`cargo run -p bench --release --bin repro -- all`)
//! produces every table, figure and ablation of the evaluation, on the
//! virtual clock, and CI's doc-sync step diffs them against the committed
//! `results/`; the shapes it is held to are asserted at test-friendly
//! sizes in the root package's `tests/paper_shapes.rs` and
//! `tests/end_to_end.rs`.

pub mod ablations;
pub mod jobserver;
pub mod scale;

use chopper::{Autotuner, TestRunPlan, Workload};
use engine::{
    Context, Emit, EngineOptions, FaultPlan, FlatMapFn, GenFn, Key, Record, ReduceFn, StageMetrics,
    Value, WorkloadConf,
};
use simcluster::paper_cluster;
use std::sync::Arc;
use workloads::{KMeans, KMeansConfig, Pca, PcaConfig, Sql, SqlConfig};

/// The factor by which the paper's multi-gigabyte inputs are scaled down
/// for a single-machine reproduction (21.8 GB → ~73 MB for KMeans).
///
/// *Every byte-denominated cluster quantity is scaled by the same factor* —
/// executor memory, NIC bandwidth, disk and cache bandwidth — so the
/// simulation stays dimensionally consistent with the testbed: a shuffle
/// that moved 1 GB over 1 GbE there moves 3.3 MB over a 3.3 Mbps virtual
/// link here and takes the same *time*. Without this, scaled-down shuffles
/// are unrealistically cheap relative to compute and Eq. 3's shuffle term
/// pulls against its time term instead of aligning with it.
pub const DATA_SCALE: u64 = 300;

/// Engine options matching the paper's evaluation setup: the 6-node
/// heterogeneous testbed and 300 default partitions, with all
/// byte-denominated capacities shrunk by [`DATA_SCALE`] to match the
/// scaled-down inputs.
pub fn paper_engine(default_parallelism: usize, copartition: bool) -> EngineOptions {
    let mut cluster = paper_cluster();
    let scale = DATA_SCALE as f64;
    for node in &mut cluster.nodes {
        node.memory_bytes /= DATA_SCALE;
        node.net_bandwidth /= scale;
        node.disk_bandwidth /= scale;
    }
    cluster.cache_bandwidth /= scale;
    EngineOptions {
        cluster,
        default_parallelism,
        copartition_scheduling: copartition,
        driver_bandwidth: 1e9 / 8.0 / scale,
        ..EngineOptions::default()
    }
}

/// The KMeans workload at evaluation scale (Table I analog).
pub fn kmeans_paper() -> KMeans {
    KMeans::new(KMeansConfig::paper())
}

/// The KMeans workload at the Section II-B motivation scale (7.3 GB in the
/// paper vs 21.8 GB in Table I — we preserve the ratio).
pub fn kmeans_motivation() -> KMeans {
    let mut cfg = KMeansConfig::paper();
    cfg.points = (cfg.points as f64 * 7.3 / 21.8) as u64;
    KMeans::new(cfg)
}

/// A reduced KMeans (20k points) used by the memory-pressure experiment.
pub fn kmeans_reduced() -> KMeans {
    let mut cfg = KMeansConfig::paper();
    cfg.points = 20_000;
    KMeans::new(cfg)
}

/// The PCA workload at evaluation scale.
pub fn pca_paper() -> Pca {
    Pca::new(PcaConfig::paper())
}

/// The SQL workload at evaluation scale.
pub fn sql_paper() -> Sql {
    Sql::new(SqlConfig::paper())
}

/// Words emitted per synthetic text line.
const WORDS_PER_LINE: usize = 8;
/// Distinct words in the synthetic vocabulary.
const VOCABULARY: u64 = 100;
/// Virtual serialized bytes per text line (Table-I style accounting).
const LINE_BYTES: u64 = 64;
/// Units per scanned line (same scale as the SQL workload's scan).
const LINE_COST: f64 = 0.12;
/// Units per emitted or merged word record.
const WORD_COST: f64 = 0.01;

/// A wordcount built from the raw engine primitives: a synthetic text
/// source, a flat-map that splits each line into words, and a
/// reduce-by-key that counts them. The fault-recovery figure pairs it
/// with the SQL join because its single wide shuffle over string keys is
/// the simplest lineage to recompute after a node loss.
pub struct WordCount {
    /// Text lines at full scale.
    pub lines: usize,
}

impl Workload for WordCount {
    fn name(&self) -> &str {
        "wordcount"
    }

    fn full_input_bytes(&self) -> u64 {
        self.lines as u64 * LINE_BYTES
    }

    fn run(&self, opts: &EngineOptions, conf: &WorkloadConf, scale: f64) -> Context {
        let mut ctx = Context::new(opts.clone());
        ctx.set_conf(conf.clone());
        let n = ((self.lines as f64 * scale) as usize).max(1);
        let gen: GenFn = Arc::new(move |i, parts, out: &mut dyn Emit| {
            for j in i * n / parts..(i + 1) * n / parts {
                out.emit(Record::new(Key::Int(j as i64), Value::Int(1)));
            }
        });
        let bytes = ((self.full_input_bytes() as f64 * scale) as u64).max(1);
        let lines = ctx.text_file("wordcount-in", bytes, gen, LINE_COST, "read-lines");
        // One `(word, 1)` record per vocabulary word, built once per run
        // and copied into the slot of every line that draws it.
        let vocabulary: Vec<Record> = (0..VOCABULARY)
            .map(|w| Record::new(Key::str(&format!("word-{w:03}")), Value::Int(1)))
            .collect();
        let split: FlatMapFn = Arc::new(move |r: &Record, out: &mut dyn Emit| {
            let line = match &r.key {
                Key::Int(i) => *i as u64,
                other => panic!("malformed line key {other:?}"),
            };
            for w in 0..WORDS_PER_LINE as u64 {
                // Deterministic word draw per (line, position).
                let h = line.wrapping_mul(2654435761).wrapping_add(w * 97);
                out.put(&mut |slot| slot.clone_from(&vocabulary[(h % VOCABULARY) as usize]));
            }
        });
        let words = ctx.flat_map(lines, split, WORD_COST, "split-words");
        let sum: ReduceFn = Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int()));
        let counts = ctx.reduce_by_key(words, sum, None, WORD_COST, "count-words");
        ctx.count(counts, "wordcount");
        ctx
    }
}

/// The wordcount workload at the fault-figure scale: its scan stage runs
/// long enough on the evaluation cluster that the shipped fault plan's
/// node loss lands mid-stage, while the map outputs are still live.
pub fn wordcount_paper() -> WordCount {
    WordCount { lines: 250_000 }
}

/// The paper-protocol auto-tuner over the evaluation cluster.
pub fn paper_autotuner() -> Autotuner {
    paper_autotuner_mem(300, None)
}

/// The paper-protocol auto-tuner with an explicit vanilla default
/// parallelism and per-executor memory budget: the optimizer sees the
/// per-task share and applies its feasibility bound and spill-cost
/// penalty, and both the vanilla and tuned runs execute under the
/// bounded storage layer.
pub fn paper_autotuner_mem(default_parallelism: usize, executor_mem: Option<u64>) -> Autotuner {
    let mut base = paper_engine(default_parallelism, false);
    base.executor_mem = executor_mem;
    paper_tuner(base)
}

/// The paper-protocol auto-tuner over a *degraded* evaluation cluster:
/// node `lost_node` is removed from the topology and a fault plan with
/// the given per-task failure probability is active during every run —
/// vanilla, test grid, and tuned — so the trained models observe
/// recovery-inflated stage times and the optimizer charges expected
/// retries into each candidate partition count. This is the re-tune
/// CHOPPER performs after a node loss shrinks the cluster.
pub fn paper_autotuner_degraded(
    default_parallelism: usize,
    lost_node: usize,
    task_fail_prob: f64,
) -> Autotuner {
    let mut base = paper_engine(default_parallelism, false);
    base.cluster.nodes.remove(lost_node);
    base.faults = Some(FaultPlan {
        task_fail_prob,
        ..FaultPlan::default()
    });
    paper_tuner(base)
}

/// Shared tuner setup behind the `paper_autotuner_*` entry points.
fn paper_tuner(base: EngineOptions) -> Autotuner {
    let mut t = Autotuner::new(base);
    t.test_plan = TestRunPlan::default();
    // Grid cells are independent sandboxed runs and their recorded metrics
    // are plan-determined, so fanning them out is free wall-clock.
    t.test_plan.parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .min(4);
    // Shuffle significance is judged against the cluster's own effective
    // bandwidth (derived by `Autotuner::new`); `paper_engine` already
    // rescaled every NIC by DATA_SCALE alongside the data volumes, so the
    // spec-derived value is in benchmark units as-is.
    t
}

/// All stages of a context, cloned, in execution order.
pub fn stages(ctx: &Context) -> Vec<StageMetrics> {
    ctx.all_stages().into_iter().cloned().collect()
}

/// Formats seconds as a fixed-width report cell.
pub fn fmt_time(secs: f64) -> String {
    format!("{secs:>8.1}s")
}

/// Formats bytes as KB with one decimal (the paper's Fig. 4/9 unit).
pub fn fmt_kb(bytes: u64) -> String {
    format!("{:>10.1}", bytes as f64 / 1024.0)
}

/// One experiment's report: a ruled header (title, then the paper
/// context and shape criterion) over the rendered body.
pub fn section(title: &str, context: &str, body: String) -> String {
    format!(
        "================================================================\n\
         {title}\n{context}\n\
         ----------------------------------------------------------------\n\
         {body}\n"
    )
}

/// Simple fixed-width table printer.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders with per-column alignment.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["stage", "time"]);
        t.row(vec!["0".into(), "372.0".into()]);
        t.row(vec!["12".into(), "9.1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("stage"));
        assert!(lines[2].ends_with("372.0"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn formatters_are_stable() {
        assert_eq!(fmt_time(372.04), "   372.0s");
        assert_eq!(fmt_kb(1024 * 1024), "    1024.0");
    }
}
