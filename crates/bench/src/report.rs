//! Normalized data-plane benchmark report (`results/BENCH_dataplane.json`)
//! and the CI perf-regression gate that compares a fresh run against it.
//!
//! Absolute milliseconds are machine-specific, so the gate compares
//! *speedup ratios* (seed kernel vs rewritten kernel on the same host),
//! which are portable across hardware: a kernel whose fresh ratio drops
//! more than the tolerance below the committed baseline's ratio fails.

use crate::dataplane::{
    seed_bucketize, seed_chain, seed_merge_cogroup, seed_merge_join, ChainOp, FusedChain,
};
use engine::shuffle::{
    bucketize_columnar, bucketize_columnar_runs, bucketize_in, bucketize_runs_shared, TaskArena,
};
use engine::{
    concat_int_batches, run_int_chain, ColumnBatch, EngineOptions, HashPartitioner, IntOp, Key,
    Record, ReduceFn, Value,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use workloads::{KMeans, KMeansConfig};

/// One before/after kernel measurement (host milliseconds, best-of-N).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelResult {
    /// Kernel id, stable across runs (the gate joins on it).
    pub name: String,
    /// Seed-era implementation, milliseconds.
    pub before_ms: f64,
    /// Current implementation, milliseconds.
    pub after_ms: f64,
    /// `before_ms / after_ms` — the machine-portable figure the gate checks.
    pub speedup: f64,
}

/// End-to-end host wall-clock of a reduced workload run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadWallclock {
    /// Workload id (e.g. `kmeans-20k`).
    pub workload: String,
    /// Executor-pool worker count for this run.
    pub workers: usize,
    /// Host milliseconds, best-of-N.
    pub host_ms: f64,
}

/// The whole `BENCH_dataplane.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataplaneReport {
    /// Always `"dataplane"`.
    pub experiment: String,
    /// Worker count used for the multi-lane workload run.
    pub workers: usize,
    /// Before/after kernel timings.
    pub kernels: Vec<KernelResult>,
    /// Real-workload wall-clock across worker counts.
    pub workload_wallclock: Vec<WorkloadWallclock>,
}

impl DataplaneReport {
    /// Parses a report from JSON text.
    pub fn parse(text: &str) -> Result<DataplaneReport, String> {
        serde_json::from_str(text).map_err(|e| format!("parse dataplane report: {e}"))
    }

    /// Renders the report as indented JSON (what gets committed).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Looks up a kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&KernelResult> {
        self.kernels.iter().find(|k| k.name == name)
    }
}

/// One gate verdict: a baseline kernel joined with its fresh measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCheck {
    /// Kernel id.
    pub name: String,
    /// Committed speedup ratio.
    pub baseline_speedup: f64,
    /// Freshly measured speedup ratio (`None`: kernel missing from the
    /// fresh report, which also fails the gate).
    pub fresh_speedup: Option<f64>,
    /// Minimum acceptable fresh ratio (`baseline × (1 − tolerance)`).
    pub floor: f64,
}

impl GateCheck {
    /// Whether this kernel passes.
    pub fn ok(&self) -> bool {
        matches!(self.fresh_speedup, Some(s) if s >= self.floor)
    }
}

/// Compares a fresh report against the committed baseline.
///
/// Every kernel present in the baseline must exist in the fresh report
/// with a speedup no worse than `(1 - tolerance)` times the baseline's
/// (`tolerance = 0.15` → "fail if any kernel regresses >15%").
pub fn gate_checks(
    baseline: &DataplaneReport,
    fresh: &DataplaneReport,
    tolerance: f64,
) -> Vec<GateCheck> {
    baseline
        .kernels
        .iter()
        .map(|b| GateCheck {
            name: b.name.clone(),
            baseline_speedup: b.speedup,
            fresh_speedup: fresh.kernel(&b.name).map(|f| f.speedup),
            floor: b.speedup * (1.0 - tolerance),
        })
        .collect()
}

/// Folds several independently measured reports into a conservative
/// committed baseline: per kernel, the measurement with the *lowest*
/// speedup wins. The perfgate comparison is one-sided (fresh ≥
/// `(1 − tolerance) ×` baseline), so a jitter-inflated run committed as
/// the baseline would silently tighten every future gate; taking the
/// per-kernel minimum makes the committed floor something any honest run
/// can clear. Wall-clock rows are taken from the last run as-is (they are
/// reported, not gated).
pub fn conservative_baseline(mut reports: Vec<DataplaneReport>) -> DataplaneReport {
    let mut merged = reports.pop().expect("at least one report");
    for k in &mut merged.kernels {
        for r in &reports {
            if let Some(other) = r.kernel(&k.name) {
                if other.speedup < k.speedup {
                    *k = other.clone();
                }
            }
        }
    }
    merged
}

/// Per-kernel best of several fresh measurements — the gate-side
/// counterpart of [`conservative_baseline`]. The gate asks whether this
/// host can still *achieve* each kernel's speedup; scheduler jitter can
/// hide a win in any single run but cannot fabricate one across repeats,
/// so the fresh side keeps the highest observed ratio per kernel.
pub fn best_fresh(mut reports: Vec<DataplaneReport>) -> DataplaneReport {
    let mut merged = reports.pop().expect("at least one report");
    for k in &mut merged.kernels {
        for r in &reports {
            if let Some(other) = r.kernel(&k.name) {
                if other.speedup > k.speedup {
                    *k = other.clone();
                }
            }
        }
    }
    merged
}

/// Best-of-5 host wall-clock of `f`, in milliseconds.
pub fn time_ms(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = std::time::Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// One timed run of `f`, in milliseconds.
pub fn once_ms(f: impl FnOnce()) -> f64 {
    let t = std::time::Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// Best-of-7 of an *interleaved* before/after pair. Each closure runs one
/// iteration and returns its own elapsed milliseconds (via [`once_ms`], so
/// per-iteration setup can stay outside the timed window). Alternating
/// iterations means machine-level drift (frequency scaling, co-tenancy)
/// hits both sides of the ratio equally — timing each side in its own
/// block lets a slow minute land entirely on one side and skew the
/// speedup, which is exactly what a ratio-based CI gate cannot tolerate.
pub fn time_pair_ms(mut before: impl FnMut() -> f64, mut after: impl FnMut() -> f64) -> (f64, f64) {
    let mut b = f64::INFINITY;
    let mut a = f64::INFINITY;
    for _ in 0..7 {
        b = b.min(before());
        a = a.min(after());
    }
    (b, a)
}

/// Runs the full data-plane measurement: the before/after kernels plus the
/// reduced-KMeans wall-clock at 1 and `workers` lanes.
pub fn measure_dataplane() -> DataplaneReport {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(4);

    // Narrow chain over 200k records: deep-copy + one pass per op vs the
    // executor's borrowed fused single pass.
    let input: Arc<Vec<Record>> = Arc::new(
        (0..200_000)
            .map(|i| Record::new(Key::Int(i % 1000), Value::Int(i)))
            .collect(),
    );
    let ops = vec![
        ChainOp::Filter(Arc::new(|r: &Record| r.value.as_int() % 5 != 0)),
        ChainOp::Map(Arc::new(|r: &Record| {
            Record::new(r.key.clone(), Value::Int(r.value.as_int() + 1))
        })),
        ChainOp::Filter(Arc::new(|r: &Record| r.value.as_int() % 2 == 0)),
    ];
    let fused = FusedChain::new(&ops);
    assert_eq!(seed_chain(&input, &ops), fused.run(&input));
    let (chain_before, chain_after) = time_pair_ms(
        || {
            once_ms(|| {
                for _ in 0..3 {
                    std::hint::black_box(seed_chain(&input, &ops));
                }
            })
        },
        || {
            once_ms(|| {
                for _ in 0..3 {
                    std::hint::black_box(fused.run(&input));
                }
            })
        },
    );

    // Shuffle-write bucketize, with and without map-side combine: the
    // seed's bucket-per-partition kernel vs the executor's one-allocation
    // partition-ordered runs.
    let part = HashPartitioner::new(300);
    let mut arena = TaskArena::default();
    let sum: ReduceFn = Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int()));
    // Three repetitions per timed window: a single pass is ~10 ms, short
    // enough that scheduler jitter dominates the ratio.
    let (nb_before, nb_after) = time_pair_ms(
        || {
            once_ms(|| {
                for _ in 0..3 {
                    std::hint::black_box(seed_bucketize(&input, &part, None));
                }
            })
        },
        || {
            once_ms(|| {
                for _ in 0..3 {
                    std::hint::black_box(bucketize_runs_shared(&input, &part, None, &mut arena));
                }
            })
        },
    );
    let (cb_before, cb_after) = time_pair_ms(
        || {
            once_ms(|| {
                for _ in 0..3 {
                    std::hint::black_box(seed_bucketize(&input, &part, Some(&sum)));
                }
            })
        },
        || {
            once_ms(|| {
                for _ in 0..3 {
                    std::hint::black_box(bucketize_runs_shared(
                        &input,
                        &part,
                        Some(&sum),
                        &mut arena,
                    ));
                }
            })
        },
    );

    // Vectorized fused int chain over a typed column batch vs the
    // executor's row streaming pass over the same records. The batch is built outside
    // the timed window — in the engine it arrives prebuilt from the shuffle.
    let batch = ColumnBatch::from_records(&input);
    let int_ops = vec![
        IntOp::Filter(Box::new(|v: i64| v % 5 != 0)),
        IntOp::Map(Box::new(|v: i64| v.wrapping_mul(3) + 1)),
        IntOp::Filter(Box::new(|v: i64| v % 2 == 0)),
    ];
    let row_chain = FusedChain::new(&[
        ChainOp::Filter(Arc::new(|r: &Record| r.value.as_int() % 5 != 0)),
        ChainOp::Map(Arc::new(|r: &Record| {
            Record::new(
                r.key.clone(),
                Value::Int(r.value.as_int().wrapping_mul(3) + 1),
            )
        })),
        ChainOp::Filter(Arc::new(|r: &Record| r.value.as_int() % 2 == 0)),
    ]);
    assert_eq!(
        row_chain.run(&input),
        run_int_chain(&batch, &int_ops)
            .expect("typed int batch")
            .to_records()
    );
    let (vc_before, vc_after) = time_pair_ms(
        || {
            once_ms(|| {
                for _ in 0..3 {
                    std::hint::black_box(row_chain.run(&input));
                }
            })
        },
        || {
            once_ms(|| {
                for _ in 0..3 {
                    std::hint::black_box(run_int_chain(&batch, &int_ops));
                }
            })
        },
    );

    // Per-batch bucketize — one vectorized pass over the key
    // column plus a stable counting-sort gather, vs the row loop that
    // hashes and clones record-at-a-time. Both sides start from the same
    // `&[Record]` slice, as in the engine's shuffle write.
    let mut arena_row = TaskArena::default();
    let mut arena_col = TaskArena::default();
    {
        let (rb, _) = bucketize_in(&input, &part, None, &mut arena_row);
        let (cb, _) = bucketize_columnar(&input, &part, &mut arena_col).expect("typed keys");
        assert_eq!(rb.bytes, cb.bytes);
        assert_eq!(rb.buckets, cb.buckets);
    }
    let (pb_before, pb_after) = time_pair_ms(
        || {
            once_ms(|| {
                for _ in 0..3 {
                    std::hint::black_box(bucketize_runs_shared(
                        &input,
                        &part,
                        None,
                        &mut arena_row,
                    ));
                }
            })
        },
        || {
            once_ms(|| {
                for _ in 0..3 {
                    std::hint::black_box(bucketize_columnar_runs(&input, &part, &mut arena_col));
                }
            })
        },
    );

    // Slice-shipping reduce-side concat — splicing the typed buffers of
    // shuffled batch slices vs cloning every record out of row buckets.
    // Inputs are the buckets the two per-batch bucketize paths produce.
    let (row_tb, _) = bucketize_in(&input, &part, None, &mut arena_row);
    let row_parts: Vec<Vec<Record>> = row_tb.buckets.iter().map(|b| b.to_vec()).collect();
    let (col_tb, _) = bucketize_columnar(&input, &part, &mut arena_col).expect("typed keys");
    let col_parts: Vec<ColumnBatch> = col_tb
        .buckets
        .iter()
        .map(|b| match b {
            engine::shuffle::Bucket::Cols(c) => c.clone(),
            engine::shuffle::Bucket::Rows(_) => unreachable!("columnar bucketize emits batches"),
        })
        .collect();
    let spliced = concat_int_batches(&col_parts).expect("int batches");
    let cloned: Vec<Record> = row_parts.iter().flat_map(|p| p.iter().cloned()).collect();
    assert_eq!(spliced.to_records(), cloned);
    let (sm_before, sm_after) = time_pair_ms(
        || {
            once_ms(|| {
                for _ in 0..3 {
                    let mut out: Vec<Record> =
                        Vec::with_capacity(row_parts.iter().map(Vec::len).sum());
                    for p in &row_parts {
                        out.extend_from_slice(p);
                    }
                    std::hint::black_box(out);
                }
            })
        },
        || {
            once_ms(|| {
                for _ in 0..3 {
                    std::hint::black_box(concat_int_batches(&col_parts));
                }
            })
        },
    );

    // Reduce-side merges over two keyed sides with moderate key
    // multiplicity: seed-era (on-demand SipHash tables, unsized outputs) vs
    // the streaming pre-sized accumulators.
    let n = 120_000;
    let left: Vec<Record> = (0..n)
        .map(|i| Record::new(Key::Int(i % 20_000), Value::Int(i)))
        .collect();
    let right: Vec<Record> = (0..n)
        .map(|i| Record::new(Key::Int((i * 3) % 20_000), Value::Int(-i)))
        .collect();

    assert_eq!(
        seed_merge_join(&left, &right),
        engine::shuffle::merge_join(&left, &right)
    );
    let (mj_before, mj_after) = time_pair_ms(
        || {
            once_ms(|| {
                std::hint::black_box(seed_merge_join(&left, &right));
            })
        },
        || {
            once_ms(|| {
                std::hint::black_box(engine::shuffle::merge_join(&left, &right));
            })
        },
    );
    assert_eq!(
        seed_merge_cogroup(&left, &right),
        engine::shuffle::merge_cogroup(&left, &right)
    );
    let (cg_before, cg_after) = time_pair_ms(
        || {
            once_ms(|| {
                for _ in 0..3 {
                    std::hint::black_box(seed_merge_cogroup(&left, &right));
                }
            })
        },
        || {
            once_ms(|| {
                for _ in 0..3 {
                    std::hint::black_box(engine::shuffle::merge_cogroup(&left, &right));
                }
            })
        },
    );

    // Real workload: end-to-end host wall-clock of a reduced KMeans run on
    // the persistent pool, single lane vs `workers` lanes.
    let mut cfg = KMeansConfig::paper();
    cfg.points = 20_000;
    let w = KMeans::new(cfg);
    let run_with = |lanes: usize| {
        let opts = EngineOptions {
            workers: lanes,
            ..crate::paper_engine(300, false)
        };
        time_ms(|| {
            use chopper::Workload as _;
            std::hint::black_box(w.run(&opts, &engine::WorkloadConf::new(), 1.0));
        })
    };
    let run_one = run_with(1);
    let run_many = run_with(workers);

    let kernel = |name: &str, before: f64, after: f64| KernelResult {
        name: name.to_string(),
        before_ms: before,
        after_ms: after,
        speedup: before / after,
    };
    DataplaneReport {
        experiment: "dataplane".to_string(),
        workers,
        kernels: vec![
            kernel(
                "narrow_chain_materialized_vs_fused",
                chain_before,
                chain_after,
            ),
            kernel("bucketize_no_combine", nb_before, nb_after),
            kernel("bucketize_combine", cb_before, cb_after),
            kernel("columnar_fused_chain", vc_before, vc_after),
            kernel("columnar_bucketize", pb_before, pb_after),
            kernel("columnar_concat_merge", sm_before, sm_after),
            kernel("merge_join_seed_vs_streaming", mj_before, mj_after),
            kernel("merge_cogroup_seed_vs_streaming", cg_before, cg_after),
        ],
        workload_wallclock: vec![
            WorkloadWallclock {
                workload: "kmeans-20k".to_string(),
                workers: 1,
                host_ms: run_one,
            },
            WorkloadWallclock {
                workload: "kmeans-20k".to_string(),
                workers,
                host_ms: run_many,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(speedups: &[(&str, f64)]) -> DataplaneReport {
        DataplaneReport {
            experiment: "dataplane".to_string(),
            workers: 4,
            kernels: speedups
                .iter()
                .map(|(n, s)| KernelResult {
                    name: n.to_string(),
                    before_ms: 10.0 * s,
                    after_ms: 10.0,
                    speedup: *s,
                })
                .collect(),
            workload_wallclock: vec![WorkloadWallclock {
                workload: "kmeans-20k".to_string(),
                workers: 1,
                host_ms: 100.0,
            }],
        }
    }

    #[test]
    fn report_json_round_trips() {
        let r = report(&[("fused", 2.5), ("pool", 1.1)]);
        let parsed = DataplaneReport::parse(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn parses_committed_baseline_format() {
        let text = r#"{
  "experiment": "dataplane",
  "workers": 1,
  "kernels": [
    {"name": "bucketize_combine", "before_ms": 9.000, "after_ms": 5.595, "speedup": 1.61}
  ],
  "workload_wallclock": [
    {"workload": "kmeans-20k", "workers": 1, "host_ms": 103.335}
  ]
}"#;
        let r = DataplaneReport::parse(text).unwrap();
        assert_eq!(r.workers, 1);
        assert_eq!(r.kernel("bucketize_combine").unwrap().speedup, 1.61);
        assert!(r.kernel("missing").is_none());
    }

    #[test]
    fn gate_passes_within_tolerance() {
        let base = report(&[("a", 2.0), ("b", 1.5)]);
        let fresh = report(&[("a", 1.8), ("b", 1.5)]);
        let checks = gate_checks(&base, &fresh, 0.15);
        assert_eq!(checks.len(), 2);
        assert!(checks.iter().all(GateCheck::ok));
    }

    #[test]
    fn gate_fails_on_regression_beyond_tolerance() {
        let base = report(&[("a", 2.0)]);
        let fresh = report(&[("a", 1.6)]);
        let checks = gate_checks(&base, &fresh, 0.15);
        assert!(!checks[0].ok(), "1.6 < 2.0 * 0.85 must fail");
        let lenient = gate_checks(&base, &fresh, 0.25);
        assert!(lenient[0].ok(), "1.6 >= 2.0 * 0.75 passes");
    }

    #[test]
    fn conservative_baseline_takes_per_kernel_minimum() {
        let r1 = report(&[("a", 2.0), ("b", 1.1)]);
        let r2 = report(&[("a", 1.7), ("b", 1.4)]);
        let merged = conservative_baseline(vec![r1, r2]);
        assert_eq!(merged.kernel("a").unwrap().speedup, 1.7);
        assert_eq!(merged.kernel("b").unwrap().speedup, 1.1);
        // Non-kernel fields come from the last run verbatim.
        assert_eq!(merged.workload_wallclock.len(), 1);
    }

    #[test]
    fn best_fresh_takes_per_kernel_maximum() {
        let r1 = report(&[("a", 2.0), ("b", 1.1)]);
        let r2 = report(&[("a", 1.7), ("b", 1.4)]);
        let merged = best_fresh(vec![r1, r2]);
        assert_eq!(merged.kernel("a").unwrap().speedup, 2.0);
        assert_eq!(merged.kernel("b").unwrap().speedup, 1.4);
    }

    #[test]
    fn gate_fails_on_missing_kernel() {
        let base = report(&[("a", 2.0), ("gone", 1.2)]);
        let fresh = report(&[("a", 2.0)]);
        let checks = gate_checks(&base, &fresh, 0.15);
        assert!(checks.iter().any(|c| c.name == "gone" && !c.ok()));
    }
}
