//! The workload abstraction CHOPPER tunes.
//!
//! CHOPPER treats a workload as a black box it can re-execute: once at full
//! scale (production runs) and several times on sampled inputs for its
//! lightweight test runs (paper Section III-B). A [`Workload`] builds its
//! RDD graph against a fresh engine [`Context`] each run — re-running under
//! a different configuration is how the paper's dynamically updated Spark
//! configuration file manifests here, since plans are resolved against the
//! active [`WorkloadConf`] at action time.

use engine::{Context, EngineOptions, WorkloadConf};

/// A tunable workload.
///
/// `Send + Sync` because the test-run grid
/// ([`run_test_grid`](crate::testrun::run_test_grid)) re-executes the
/// workload from several threads at once; a workload must not carry
/// thread-affine state between runs.
pub trait Workload: Send + Sync {
    /// Stable workload name (keys the workload database).
    fn name(&self) -> &str;

    /// Full-scale input size in bytes (Table I's per-workload sizes).
    fn full_input_bytes(&self) -> u64;

    /// Executes the workload at `scale` ∈ (0, 1] of its full input under
    /// the given engine options and partitioning configuration, returning
    /// the finished context (metrics, traces, and store counters inside).
    fn run(&self, opts: &EngineOptions, conf: &WorkloadConf, scale: f64) -> Context;

    /// Convenience: full-scale run.
    fn run_full(&self, opts: &EngineOptions, conf: &WorkloadConf) -> Context {
        self.run(opts, conf, 1.0)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! A tiny two-stage workload used across the crate's tests: a keyed
    //! source followed by a reduce-by-key whose cost scales with input.

    use super::*;
    use engine::{Emit, GenFn, Key, Record, ReduceFn, Value};
    use std::sync::Arc;

    pub struct MiniAgg {
        pub records_full: usize,
        pub keys: i64,
    }

    impl MiniAgg {
        pub fn sum() -> ReduceFn {
            Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int()))
        }
    }

    impl Workload for MiniAgg {
        fn name(&self) -> &str {
            "mini-agg"
        }

        fn full_input_bytes(&self) -> u64 {
            (self.records_full * 20) as u64
        }

        fn run(&self, opts: &EngineOptions, conf: &WorkloadConf, scale: f64) -> Context {
            let mut ctx = Context::new(opts.clone());
            ctx.set_conf(conf.clone());
            let n = ((self.records_full as f64 * scale) as usize).max(1);
            let keys = self.keys;
            let gen: GenFn = Arc::new(move |i, parts, out: &mut dyn Emit| {
                for j in i * n / parts..(i + 1) * n / parts {
                    out.emit(Record::new(Key::Int(j as i64 % keys), Value::Int(1)));
                }
            });
            let bytes = (self.full_input_bytes() as f64 * scale) as u64;
            let src = ctx.text_file("mini-agg-in", bytes.max(1), gen, 0.4e-6, "scan");
            let red = ctx.reduce_by_key(src, Self::sum(), None, 0.3e-6, "agg");
            ctx.count(red, "mini-agg");
            ctx
        }
    }
}
