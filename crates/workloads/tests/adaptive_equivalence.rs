//! Adaptive execution must be deterministic and data-preserving:
//!
//! * `--adaptive on` (splitter + replan hook) must produce bit-identical
//!   virtual results — job/stage metrics, per-task durations, the
//!   virtual-clock trace slice — at any host worker count, row or
//!   columnar. Adaptive decisions key on data-plane byte
//!   tables and the virtual clock only, so nothing host-side may leak in.
//! * `--adaptive off` must do the same (the static engine is already
//!   pinned by the batch suite; this adds the flag's own
//!   off-state to the matrix).
//! * The two modes must agree on every output *value*: hot-partition
//!   splitting is key-preserving and aggregation is order-insensitive per
//!   key, so the sorted output tables are equal bit-for-bit — only
//!   simulated timings may differ.
//! * On the skewed workload the adaptive run must actually split (and
//!   re-plan), and must be faster on the virtual clock — otherwise the
//!   layer silently degraded to a no-op and this suite is vacuous.

use engine::{ClockFilter, Context, EngineOptions, TraceSink, WorkloadConf};
use simcluster::uniform_cluster;
use workloads::{SkewAgg, SkewAggConfig, SkewAggResult};

fn options(adaptive: bool, batch: bool, workers: usize) -> EngineOptions {
    EngineOptions {
        cluster: uniform_cluster(3, 4, 2.0),
        default_parallelism: 8,
        workers,
        trace: TraceSink::enabled(),
        batch,
        adaptive,
        // The replan hook is part of `--adaptive on`: its inputs are
        // data-plane bytes and virtual durations, so installing it must
        // not break worker-count or engine-mode bit-identity.
        replan: adaptive.then(|| {
            chopper::replan_hook(chopper::ReplanOptions {
                slots: 12,
                ..chopper::ReplanOptions::default()
            })
        }),
        ..EngineOptions::default()
    }
}

/// Everything virtual-clock observable about a finished run, in
/// comparable form (f64 `Debug` renders distinct bit patterns
/// distinctly), plus the output tables.
type Table = Vec<(i64, f64, u64)>;

struct Observed {
    tables: (Table, Table),
    fingerprint: u64,
    jobs_debug: String,
    stages_debug: String,
    virtual_trace: String,
    clock_bits: u64,
}

fn observe(adaptive: bool, batch: bool, workers: usize) -> Observed {
    let w = SkewAgg::new(SkewAggConfig::small());
    let res: SkewAggResult = w.execute(
        &options(adaptive, batch, workers),
        &WorkloadConf::new(),
        1.0,
    );
    let ctx: &Context = &res.ctx;
    Observed {
        fingerprint: res.fingerprint(),
        jobs_debug: format!("{:?}", ctx.jobs()),
        stages_debug: format!("{:?}", ctx.all_stages()),
        virtual_trace: ctx
            .trace_sink()
            .chrome_json_filtered(ClockFilter::VirtualOnly),
        clock_bits: ctx.clock().to_bits(),
        tables: (res.hot_table, res.freq_table),
    }
}

fn assert_matrix_bit_identical(adaptive: bool) {
    let reference = observe(adaptive, true, 1);
    assert!(
        !reference.virtual_trace.is_empty(),
        "traced run produced no events"
    );
    for workers in [1, 8] {
        for batch in [false, true] {
            if batch && workers == 1 {
                continue; // the reference itself
            }
            let what = format!("adaptive {adaptive}, batch {batch}, workers {workers}");
            let got = observe(adaptive, batch, workers);
            assert_eq!(reference.tables, got.tables, "{what}: output tables");
            assert_eq!(
                reference.fingerprint, got.fingerprint,
                "{what}: fingerprint"
            );
            assert_eq!(reference.jobs_debug, got.jobs_debug, "{what}: job metrics");
            assert_eq!(
                reference.stages_debug, got.stages_debug,
                "{what}: stage metrics"
            );
            assert_eq!(
                reference.virtual_trace, got.virtual_trace,
                "{what}: virtual trace slice"
            );
            assert_eq!(reference.clock_bits, got.clock_bits, "{what}: clock");
        }
    }
}

#[test]
fn adaptive_on_is_bit_identical_across_the_matrix() {
    assert_matrix_bit_identical(true);
}

#[test]
fn adaptive_off_is_bit_identical_across_the_matrix() {
    assert_matrix_bit_identical(false);
}

#[test]
fn on_and_off_agree_on_outputs_and_diverge_on_time() {
    let on = observe(true, true, 4);
    let off = observe(false, true, 4);
    assert_eq!(on.tables, off.tables, "splitting must preserve every value");
    assert_eq!(on.fingerprint, off.fingerprint);
    let t_on = f64::from_bits(on.clock_bits);
    let t_off = f64::from_bits(off.clock_bits);
    assert!(
        t_on < t_off,
        "the adaptive run must be strictly faster on the virtual clock \
         (on={t_on:.4}s off={t_off:.4}s) — otherwise the layer is a no-op"
    );
}

#[test]
fn adaptive_run_actually_splits_and_replans() {
    let w = SkewAgg::new(SkewAggConfig::small());
    let res = w.execute(&options(true, true, 4), &WorkloadConf::new(), 1.0);
    let stages = res.ctx.all_stages();
    assert!(
        stages[1].num_tasks > w.config.partitions,
        "hot range partition must split into sub-tasks"
    );
    assert_eq!(
        stages[5].scheme.map(|s| s.kind),
        Some(engine::PartitionerKind::Range),
        "round two of the hash aggregation must run under the re-planned scheme"
    );
    let trace = res
        .ctx
        .trace_sink()
        .chrome_json_filtered(ClockFilter::VirtualOnly);
    assert!(
        trace.contains("adaptive split"),
        "split decisions must be recorded as trace instants"
    );
    assert!(
        trace.contains("adaptive replan"),
        "replan decisions must be recorded as trace instants"
    );
}
