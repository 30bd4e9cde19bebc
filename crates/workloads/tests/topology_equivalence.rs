//! There is one network model, and `Topology::Flat` is its one-rack
//! case: for every paper workload, a cluster spec carrying
//! `Topology::Rack { racks: 1, hosts: n, oversub: 1.0 }` must produce
//! bit-identical simulated results to the flat spec — job/stage
//! metrics, per-task virtual durations, and the virtual-clock slice of
//! the Chrome trace — at any host worker count, with batching on or
//! off.

use chopper::Workload;
use engine::{ClockFilter, Context, EngineOptions, JobMetrics, TraceSink, WorkloadConf};
use simcluster::{uniform_cluster, Topology};
use workloads::{KMeans, KMeansConfig, LogReg, LogRegConfig, Pca, PcaConfig, Sql, SqlConfig};

fn options(one_rack: bool, batch: bool, workers: usize) -> EngineOptions {
    let mut cluster = uniform_cluster(3, 4, 2.0);
    if one_rack {
        cluster = cluster.with_topology(Topology::Rack {
            racks: 1,
            hosts: 3,
            oversub: 1.0,
        });
    }
    EngineOptions {
        cluster,
        default_parallelism: 8,
        workers,
        trace: TraceSink::enabled(),
        batch,
        ..EngineOptions::default()
    }
}

fn assert_jobs_bit_identical(a: &[JobMetrics], b: &[JobMetrics], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: job count");
    for (ja, jb) in a.iter().zip(b) {
        assert!(
            ja.start.to_bits() == jb.start.to_bits() && ja.end.to_bits() == jb.end.to_bits(),
            "{what}: job {} timing diverged",
            ja.name
        );
        assert_eq!(ja.stages.len(), jb.stages.len(), "{what}: stage count");
        for (sa, sb) in ja.stages.iter().zip(&jb.stages) {
            assert!(
                sa.start.to_bits() == sb.start.to_bits() && sa.end.to_bits() == sb.end.to_bits(),
                "{what}: stage {} timing diverged",
                sa.name
            );
            assert_eq!(
                sa.task_durations.len(),
                sb.task_durations.len(),
                "{what}: stage {} task count",
                sa.name
            );
            for (da, db) in sa.task_durations.iter().zip(&sb.task_durations) {
                assert!(
                    da.to_bits() == db.to_bits(),
                    "{what}: stage {} task duration diverged",
                    sa.name
                );
            }
        }
    }
}

/// Everything virtual-clock observable about a finished context, in a
/// comparable form. `StageMetrics` carries no `PartialEq`, so stages are
/// compared through their `Debug` rendering (f64 `Debug` is a shortest
/// round-trip form: distinct bit patterns render distinctly).
struct Observed {
    jobs: Vec<JobMetrics>,
    stages_debug: String,
    virtual_trace: String,
    summary_stages: String,
    total_s_bits: u64,
    /// The simulator's own books: IO counters and the utilization trace.
    sim_debug: String,
}

fn observe(w: &dyn Workload, one_rack: bool, batch: bool, workers: usize) -> Observed {
    let ctx: Context = w.run(
        &options(one_rack, batch, workers),
        &WorkloadConf::new(),
        1.0,
    );
    let summary = ctx.trace_summary();
    Observed {
        jobs: ctx.jobs().to_vec(),
        stages_debug: format!("{:?}", ctx.all_stages()),
        virtual_trace: ctx
            .trace_sink()
            .chrome_json_filtered(ClockFilter::VirtualOnly),
        // Pool counters are wall-clock diagnostics and legitimately differ
        // between modes; stage rows are virtual-clock data and must not.
        summary_stages: format!("{:?}", summary.stages),
        total_s_bits: summary.total_s.to_bits(),
        sim_debug: format!(
            "{:?} {:?}",
            ctx.sim().io_stats(),
            ctx.sim().trace().points()
        ),
    }
}

fn assert_flat_is_the_one_rack_topology(w: &dyn Workload) {
    // Reference: the default (flat) spec, rows, single worker — what
    // every paper figure observes.
    let reference = observe(w, false, false, 1);
    assert!(
        !reference.virtual_trace.is_empty(),
        "{}: traced run produced no events",
        w.name()
    );
    for workers in [1, 8] {
        for batch in [false, true] {
            let what = format!("{}: rack:1x3:1, batch {batch}, workers {workers}", w.name());
            let got = observe(w, true, batch, workers);
            assert_jobs_bit_identical(&reference.jobs, &got.jobs, &what);
            assert_eq!(
                reference.stages_debug, got.stages_debug,
                "{what}: stage metrics diverged"
            );
            assert_eq!(
                reference.virtual_trace, got.virtual_trace,
                "{what}: virtual trace slice diverged"
            );
            assert_eq!(
                reference.summary_stages, got.summary_stages,
                "{what}: summary stage rows diverged"
            );
            assert_eq!(
                reference.total_s_bits, got.total_s_bits,
                "{what}: total virtual time diverged"
            );
            assert_eq!(
                reference.sim_debug, got.sim_debug,
                "{what}: io counters or utilization trace diverged"
            );
        }
    }
}

#[test]
fn kmeans_flat_matches_one_rack() {
    assert_flat_is_the_one_rack_topology(&KMeans::new(KMeansConfig::small()));
}

#[test]
fn pca_flat_matches_one_rack() {
    assert_flat_is_the_one_rack_topology(&Pca::new(PcaConfig::small()));
}

#[test]
fn sql_flat_matches_one_rack() {
    assert_flat_is_the_one_rack_topology(&Sql::new(SqlConfig::small()));
}

#[test]
fn logreg_flat_matches_one_rack() {
    assert_flat_is_the_one_rack_topology(&LogReg::new(LogRegConfig::small()));
}
