//! The seven programs the two batch suites run, and the fingerprint every
//! run of one is checked against.
//!
//! Five are the shipped workloads at `*Config::paper()` scale under default
//! options; two are mode variants that today take the barrier engine:
//! `kmeans_governed` (bounded executor memory, spills and rereads) and
//! `sql_faulted` (the lossy fault plan). The benchmark seed is XOR-ed into
//! each config's data seed, so a program only ever sees generated inputs.

use engine::record::Fnv;
use engine::{Context, EngineOptions, FaultPlan, WorkloadConf};
use workloads::{
    KMeans, KMeansConfig, LogReg, LogRegConfig, Pca, PcaConfig, SkewAgg, SkewAggConfig, Sql,
    SqlConfig,
};

/// The text of `plans/plan_lossy.plan` (the benchmark reads no file outside
/// its own directory): node loss + task failures + a straggler.
pub const PLAN_LOSSY: &str = "seed 4242\n\
task-fail-prob 0.05\n\
max-task-retries 3\n\
retry-backoff 0.25\n\
lose-node 1 20\n\
slow-node 0 2 10\n";

/// Where the search for `kmeans_governed`'s executor memory starts.
pub const GOVERNED_MEM_START: u64 = 16 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    KMeans,
    Pca,
    Sql,
    LogReg,
    SkewAgg,
    KMeansGoverned,
    SqlFaulted,
}

/// A finished run: the context (metrics, counters, trace sink) and the FNV
/// of the typed result the workload's `execute` returned.
pub struct Finished {
    pub ctx: Context,
    pub result_hash: u64,
}

impl Program {
    pub fn name(self) -> &'static str {
        match self {
            Program::KMeans => "kmeans",
            Program::Pca => "pca",
            Program::Sql => "sql",
            Program::LogReg => "logreg",
            Program::SkewAgg => "skewagg",
            Program::KMeansGoverned => "kmeans_governed",
            Program::SqlFaulted => "sql_faulted",
        }
    }

    /// The options this program runs under: `base` plus the variant's mode.
    /// `governed_mem` is the budget the warm-up sized.
    pub fn options(self, base: &EngineOptions, governed_mem: u64) -> EngineOptions {
        let mut opts = base.clone();
        match self {
            Program::KMeansGoverned => opts.executor_mem = Some(governed_mem),
            Program::SqlFaulted => {
                opts.faults = Some(FaultPlan::from_text(PLAN_LOSSY).expect("plan_lossy parses"))
            }
            _ => {}
        }
        opts
    }

    /// One full-scale run on a fresh context.
    pub fn execute(self, seed: u64, opts: &EngineOptions) -> Finished {
        let conf = WorkloadConf::new();
        let mut h = Fnv::new();
        let ctx = match self {
            Program::KMeans | Program::KMeansGoverned => {
                let mut cfg = KMeansConfig::paper();
                cfg.seed ^= seed;
                let r = KMeans::new(cfg).execute(opts, &conf, 1.0);
                for c in &r.centers {
                    eat_f64s(&mut h, c);
                }
                for &(k, n) in &r.histogram {
                    eat(&mut h, k as u64);
                    eat(&mut h, n as u64);
                }
                r.ctx
            }
            Program::Pca => {
                let mut cfg = PcaConfig::paper();
                cfg.seed ^= seed;
                let r = Pca::new(cfg).execute(opts, &conf, 1.0);
                eat_f64s(&mut h, &r.mean);
                for c in &r.components {
                    eat_f64s(&mut h, c);
                }
                eat_f64s(&mut h, &r.eigenvalues);
                r.ctx
            }
            Program::Sql | Program::SqlFaulted => {
                let mut cfg = SqlConfig::paper();
                cfg.seed ^= seed;
                let r = Sql::new(cfg).execute(opts, &conf, 1.0);
                eat(&mut h, r.joined.len() as u64);
                for &(k, o, ret) in &r.joined {
                    eat(&mut h, k as u64);
                    eat(&mut h, o.to_bits());
                    eat(&mut h, ret.to_bits());
                }
                r.ctx
            }
            Program::LogReg => {
                let mut cfg = LogRegConfig::paper();
                cfg.seed ^= seed;
                let r = LogReg::new(cfg).execute(opts, &conf, 1.0);
                eat_f64s(&mut h, &r.weights);
                eat(&mut h, r.accuracy.to_bits());
                r.ctx
            }
            Program::SkewAgg => {
                let mut cfg = SkewAggConfig::paper();
                cfg.seed ^= seed;
                let r = SkewAgg::new(cfg).execute(opts, &conf, 1.0);
                eat(&mut h, r.fingerprint());
                r.ctx
            }
        };
        Finished {
            ctx,
            result_hash: h.finish(),
        }
    }
}

fn eat(h: &mut Fnv, x: u64) {
    h.write(&x.to_le_bytes());
}

fn eat_f64s(h: &mut Fnv, xs: &[f64]) {
    eat(h, xs.len() as u64);
    for x in xs {
        eat(h, x.to_bits());
    }
}

/// The oracle fingerprint of a finished run: per-job virtual start/end
/// bits, per-stage task/record/shuffle-byte counts, and the typed result.
/// Results are a function of program and data only, so it must be equal
/// bit-for-bit across executors, layouts and worker counts.
pub fn fingerprint(run: &Finished) -> u64 {
    let mut h = Fnv::new();
    for job in run.ctx.jobs() {
        eat(&mut h, job.start.to_bits());
        eat(&mut h, job.end.to_bits());
        for s in &job.stages {
            eat(&mut h, s.num_tasks as u64);
            eat(&mut h, s.input_records);
            eat(&mut h, s.output_records);
            eat(&mut h, s.shuffle_read_bytes);
            eat(&mut h, s.shuffle_write_bytes);
        }
    }
    eat(&mut h, run.result_hash);
    h.finish()
}

/// Simulated-cluster seconds of a finished run.
pub fn virtual_span(ctx: &Context) -> f64 {
    match (ctx.jobs().first(), ctx.jobs().last()) {
        (Some(first), Some(last)) => last.end - first.start,
        _ => 0.0,
    }
}

/// The oracle configuration of `opts`: barrier engine, row layout, one
/// host thread.
pub fn reference_options(opts: &EngineOptions) -> EngineOptions {
    EngineOptions {
        pipeline: false,
        batch: false,
        workers: 1,
        ..opts.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_repeats_across_runs_and_engines_and_moves_with_the_seed() {
        let opts = EngineOptions {
            default_parallelism: 16,
            workers: 2,
            ..EngineOptions::default()
        };
        let run = |seed, opts: &EngineOptions| fingerprint(&Program::SkewAgg.execute(seed, opts));
        let first = run(3, &opts);
        assert_eq!(first, run(3, &opts), "two runs of one program and seed");
        assert_eq!(
            first,
            run(3, &reference_options(&opts)),
            "barrier engine, row layout, one thread"
        );
        assert_ne!(first, run(4, &opts), "another seed is another input");
    }

    #[test]
    fn plan_lossy_text_parses_and_loses_a_node() {
        let plan = FaultPlan::from_text(PLAN_LOSSY).expect("parses");
        assert_eq!(plan.node_loss.len(), 1);
        assert!(plan.task_fail_prob > 0.0);
    }
}
