//! The four workloads, what one operation of each is, and how one runs —
//! under default options, under the oracle's reference options, or traced
//! with benchmark spans around each call into the program.

use crate::programs::{self, Finished, Program};
use crate::spans::Recorder;
use chopper::{
    collect_dag, collect_observations, Autotuner, TestRunPlan, Workload as _, WorkloadDb,
};
use engine::record::Fnv;
use engine::{Context, EngineOptions, PartitionerKind, StageKind, TraceSink, WorkloadConf};
use jobserver::{Interleave, JobTrace, Policy, ServeReport, ServerConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use workloads::{Sql, SqlConfig};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BatchFat,
    BatchWide,
    TuneGrid,
    ServeMix,
}

/// One operation: the unit that is timed, counted and oracle-checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Run(Program),
    Compare,
    Serve,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Run(p) => p.name(),
            Op::Compare => "compare",
            Op::Serve => "serve",
        }
    }
}

/// `batch_fat` runs all seven programs; `batch_wide` the three whose cost
/// at P=1200 is per-task machinery rather than repeated kernels.
const FAT_OPS: [Op; 7] = [
    Op::Run(Program::KMeans),
    Op::Run(Program::Pca),
    Op::Run(Program::Sql),
    Op::Run(Program::LogReg),
    Op::Run(Program::SkewAgg),
    Op::Run(Program::KMeansGoverned),
    Op::Run(Program::SqlFaulted),
];
const WIDE_OPS: [Op; 3] = [
    Op::Run(Program::Sql),
    Op::Run(Program::KMeans),
    Op::Run(Program::SkewAgg),
];

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BatchFat,
        Workload::BatchWide,
        Workload::TuneGrid,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchFat => "batch_fat",
            Workload::BatchWide => "batch_wide",
            Workload::TuneGrid => "tune_grid",
            Workload::ServeMix => "serve_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The partition count that characterises the workload. The batch
    /// suites run at it; the layer drives of every workload are shaped to
    /// it (for `tune_grid` the vanilla default, for `serve_mix` the
    /// server's).
    pub fn parallelism(self) -> usize {
        match self {
            Workload::BatchFat => 60,
            Workload::BatchWide => 1200,
            Workload::TuneGrid => 300,
            Workload::ServeMix => 8,
        }
    }

    /// The operations of one pass, in order.
    pub fn pass(self) -> &'static [Op] {
        match self {
            Workload::BatchFat => &FAT_OPS,
            Workload::BatchWide => &WIDE_OPS,
            Workload::TuneGrid => &[Op::Compare],
            Workload::ServeMix => &[Op::Serve],
        }
    }
}

/// Which options an operation runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// What a user gets: pipelined, columnar, `workers` host threads.
    Default,
    /// The oracle: another host configuration that must give the same
    /// bits. Batch programs take the barrier engine with row layout on one
    /// thread; `tune_grid` one-thread cells run two at a time; `serve_mix`
    /// serves serially on one thread.
    Reference,
}

/// Everything fixed for one benchmark process.
pub struct Env {
    pub workload: Workload,
    pub seed: u64,
    pub workers: usize,
    /// `kmeans_governed`'s executor memory, sized during warm-up.
    pub governed_mem: u64,
    /// `serve_mix`'s input.
    pub jobs: JobTrace,
}

impl Env {
    pub fn new(workload: Workload, seed: u64, workers: usize) -> Env {
        Env {
            workload,
            seed,
            workers,
            governed_mem: programs::GOVERNED_MEM_START,
            jobs: jobserver::generate(4, 2000, seed),
        }
    }

    /// Engine options of the batch suites (and the base of `tune_grid`,
    /// whose vanilla run keeps the default 300 partitions).
    pub fn engine_options(&self, sink: &TraceSink) -> EngineOptions {
        let defaults = EngineOptions::default();
        EngineOptions {
            default_parallelism: match self.workload {
                Workload::BatchFat | Workload::BatchWide => self.workload.parallelism(),
                _ => defaults.default_parallelism,
            },
            workers: self.workers,
            trace: sink.clone(),
            ..defaults
        }
    }

    pub fn sql(&self) -> Sql {
        let mut cfg = SqlConfig::paper();
        cfg.seed ^= self.seed;
        Sql::new(cfg)
    }

    /// The tuner of `tune_grid`: 2 scales × 3 partition counts × 2 kinds
    /// plus the bootstrap = 13 sandboxed test runs.
    pub fn tuner(&self, mode: Mode, sink: &TraceSink) -> Autotuner {
        let mut base = self.engine_options(sink);
        let mut cells_at_once = 1;
        if mode == Mode::Reference {
            base.workers = 1;
            cells_at_once = 2;
        }
        let mut tuner = Autotuner::new(base);
        tuner.test_plan = TestRunPlan {
            scales: vec![0.1, 0.3],
            partitions: vec![60, 300, 1200],
            kinds: vec![PartitionerKind::Hash, PartitionerKind::Range],
            probe_user_fixed: true,
            parallelism: cells_at_once,
        };
        tuner
    }

    pub fn server_config(&self, mode: Mode, sink: &TraceSink) -> ServerConfig {
        let (workers, interleave) = match mode {
            Mode::Default => (self.workers, Interleave::TenantThreads),
            Mode::Reference => (1, Interleave::Serial),
        };
        ServerConfig {
            policy: Policy::Fair,
            slots: 4,
            queue_cap: 4096,
            engine: EngineOptions {
                cluster: simcluster::uniform_cluster(4, 4, 2.0),
                default_parallelism: Workload::ServeMix.parallelism(),
                workers,
                trace: sink.clone(),
                ..jobserver::server_engine_defaults()
            },
            interleave,
            trace: sink.clone(),
            ..ServerConfig::default()
        }
    }

    fn program_options(&self, program: Program, mode: Mode, sink: &TraceSink) -> EngineOptions {
        let opts = program.options(&self.engine_options(sink), self.governed_mem);
        match mode {
            Mode::Default => opts,
            // pca under `pipeline: false` takes 30-80 s at P=60 against
            // 1.5 s pipelined; its oracle keeps the pipelined engine so a
            // run fits the time budget.
            Mode::Reference if program == Program::Pca => EngineOptions {
                pipeline: true,
                ..programs::reference_options(&opts)
            },
            Mode::Reference => programs::reference_options(&opts),
        }
    }
}

/// The shape of one executed stage, kept for the `simcluster` replay drive.
#[derive(Debug, Clone)]
pub struct StageShape {
    pub kind: StageKind,
    pub task_durations: Vec<f64>,
    pub input_bytes: u64,
    pub shuffle_read_bytes: u64,
    pub shuffle_write_bytes: u64,
    /// Map tasks whose output this stage fetched (0 for source stages).
    pub parent_tasks: usize,
}

/// What the layer metrics need from a finished context, copied out so the
/// context itself can be dropped before the next operation.
#[derive(Debug, Clone, Default)]
pub struct RunFacts {
    pub tasks: u64,
    pub source_records: u64,
    pub shuffle_write_bytes: u64,
    pub store_reads: u64,
    pub store_writes: u64,
    pub mem: engine::MemCounters,
    pub faults: engine::FaultCounters,
    pub pool: trace::PoolCounters,
    pub stages: Vec<StageShape>,
}

pub fn run_facts(ctx: &Context) -> RunFacts {
    let stages = ctx.all_stages();
    let tasks_of = |id: usize| {
        stages
            .iter()
            .find(|s| s.stage_id == id)
            .map_or(0, |s| s.num_tasks)
    };
    let io = ctx.store().counters();
    RunFacts {
        tasks: stages.iter().map(|s| s.num_tasks as u64).sum(),
        source_records: stages
            .iter()
            .filter(|s| s.kind == StageKind::Source)
            .map(|s| s.input_records)
            .sum(),
        shuffle_write_bytes: stages.iter().map(|s| s.shuffle_write_bytes).sum(),
        store_reads: io.reads,
        store_writes: io.writes,
        mem: ctx.mem_counters(),
        faults: ctx.fault_counters(),
        pool: ctx.pool().stats(),
        stages: stages
            .iter()
            .map(|s| StageShape {
                kind: s.kind,
                task_durations: s.task_durations.clone(),
                input_bytes: s.input_bytes,
                shuffle_read_bytes: s.shuffle_read_bytes,
                shuffle_write_bytes: s.shuffle_write_bytes,
                parent_tasks: s.parents.iter().map(|&p| tasks_of(p)).sum(),
            })
            .collect(),
    }
}

/// What a traced operation leaves behind for the layer metrics.
pub enum Facts {
    None,
    Run(Box<RunFacts>),
    Compare(Box<CompareFacts>),
    Serve(Box<ServeReport>),
}

pub struct CompareFacts {
    pub vanilla: RunFacts,
    pub tuned: RunFacts,
    pub db: WorkloadDb,
    pub test_runs: usize,
    pub improvement_pct: f64,
}

/// One executed operation.
pub struct Outcome {
    pub op: Op,
    /// Host seconds of the call into the program (`NaN` if it panicked).
    pub wall_s: f64,
    /// Simulated-cluster seconds of the same work.
    pub virtual_s: f64,
    pub fingerprint: u64,
    /// Panicked, returned `Err`, or left a serve job rejected/incomplete.
    /// A fingerprint that differs from the oracle's is counted later.
    pub failed: bool,
    /// The root span's op id when traced ([`run_op`] sets it; 0 otherwise).
    pub span_op: u64,
    pub facts: Facts,
}

fn eat_str(h: &mut Fnv, s: &str) {
    h.write(&(s.len() as u64).to_le_bytes());
    h.write(s.as_bytes());
}

fn compare_fingerprint(db: &WorkloadDb, conf: &WorkloadConf, vanilla_s: f64, tuned_s: f64) -> u64 {
    let mut h = Fnv::new();
    eat_str(&mut h, &db.to_json());
    eat_str(&mut h, &conf.to_text());
    h.write(&vanilla_s.to_bits().to_le_bytes());
    h.write(&tuned_s.to_bits().to_le_bytes());
    h.finish()
}

fn serve_fingerprint(report: &ServeReport) -> u64 {
    let mut h = Fnv::new();
    eat_str(&mut h, &report.tables_text());
    eat_str(&mut h, &report.to_json());
    h.finish()
}

impl Outcome {
    /// An operation that panicked or returned `Err`.
    fn failed(op: Op, wall_s: f64) -> Outcome {
        Outcome {
            op,
            wall_s,
            virtual_s: f64::NAN,
            fingerprint: 0,
            failed: true,
            span_op: 0,
            facts: Facts::None,
        }
    }
}

/// Runs one operation. With a recorder the run is traced: the program's
/// sink is the recorder's, the operation gets a root span with one child
/// per call into the program, and [`Facts`] are kept.
pub fn run_op(env: &Env, op: Op, mode: Mode, rec: Option<&mut Recorder>) -> Outcome {
    catch_unwind(AssertUnwindSafe(|| match rec {
        Some(rec) => {
            let (span_op, outcome) = rec.operation(op.name(), |r| traced_op(env, op, r));
            Outcome { span_op, ..outcome }
        }
        None => plain_op(env, op, mode),
    }))
    .unwrap_or_else(|_| Outcome::failed(op, f64::NAN))
}

fn plain_op(env: &Env, op: Op, mode: Mode) -> Outcome {
    let sink = TraceSink::disabled();
    match op {
        Op::Run(program) => {
            let opts = env.program_options(program, mode, &sink);
            let t = Instant::now();
            let run = program.execute(env.seed, &opts);
            let wall_s = t.elapsed().as_secs_f64();
            Outcome {
                op,
                wall_s,
                virtual_s: programs::virtual_span(&run.ctx),
                fingerprint: programs::fingerprint(&run),
                failed: false,
                span_op: 0,
                facts: Facts::None,
            }
        }
        Op::Compare => {
            let (tuner, sql) = (env.tuner(mode, &sink), env.sql());
            let t = Instant::now();
            let cmp = tuner.compare(&sql);
            let wall_s = t.elapsed().as_secs_f64();
            Outcome {
                op,
                wall_s,
                virtual_s: cmp.chopper_time(),
                fingerprint: compare_fingerprint(
                    &cmp.db,
                    &cmp.plan.conf,
                    cmp.vanilla_time(),
                    cmp.chopper_time(),
                ),
                failed: false,
                span_op: 0,
                facts: Facts::None,
            }
        }
        Op::Serve => {
            let cfg = env.server_config(mode, &sink);
            let t = Instant::now();
            let served = jobserver::serve(&env.jobs, &cfg);
            let wall_s = t.elapsed().as_secs_f64();
            serve_done(env, wall_s, served)
        }
    }
}

fn serve_done(env: &Env, wall_s: f64, served: Result<ServeReport, String>) -> Outcome {
    match served {
        Ok(report) => Outcome {
            op: Op::Serve,
            wall_s,
            virtual_s: report.makespan,
            fingerprint: serve_fingerprint(&report),
            failed: !report.rejected.is_empty() || report.completed != env.jobs.jobs.len(),
            span_op: 0,
            facts: Facts::Serve(Box::new(report)),
        },
        Err(msg) => {
            eprintln!("serve failed: {msg}");
            Outcome::failed(Op::Serve, wall_s)
        }
    }
}

/// The traced form of an operation, under default options. `compare` is
/// called step by step (the same five steps as `Autotuner::compare`) so
/// each gets a span; every context is dropped inside its own span so the
/// cost of tearing a run down is seen too.
fn traced_op(env: &Env, op: Op, rec: &mut Recorder) -> Outcome {
    let sink = rec.sink().clone();
    let start = sink.wall_now();
    match op {
        Op::Run(program) => {
            let opts = env.program_options(program, Mode::Default, &sink);
            let run: Finished = rec.span("execute", |_| program.execute(env.seed, &opts));
            let wall_s = sink.wall_now() - start;
            let (fingerprint, facts) = rec.span("fingerprint", |_| {
                (programs::fingerprint(&run), run_facts(&run.ctx))
            });
            let virtual_s = programs::virtual_span(&run.ctx);
            rec.span("drop", |_| drop(run));
            Outcome {
                op,
                wall_s,
                virtual_s,
                fingerprint,
                failed: false,
                span_op: 0,
                facts: Facts::Run(Box::new(facts)),
            }
        }
        Op::Compare => {
            let (tuner, sql) = (env.tuner(Mode::Default, &sink), env.sql());
            let full = sql.full_input_bytes();
            let vanilla = rec.span("vanilla_run", |_| {
                sql.run_full(&tuner.vanilla_opts, &WorkloadConf::new())
            });
            let mut db = WorkloadDb::new();
            rec.span("collect", |_| {
                db.record_run(
                    sql.name(),
                    collect_observations(vanilla.jobs(), full),
                    collect_dag(vanilla.jobs(), full),
                )
            });
            let test_runs = rec.span("train", |_| tuner.train(&sql, &mut db));
            let plan = rec.span("plan", |_| tuner.plan(&sql, &db));
            let tuned = rec.span("tuned_run", |_| {
                sql.run_full(&tuner.chopper_opts, &plan.conf)
            });
            let wall_s = sink.wall_now() - start;
            let (vanilla_s, tuned_s) = (
                programs::virtual_span(&vanilla),
                programs::virtual_span(&tuned),
            );
            let (fingerprint, facts) = rec.span("fingerprint", |_| {
                (
                    compare_fingerprint(&db, &plan.conf, vanilla_s, tuned_s),
                    (run_facts(&vanilla), run_facts(&tuned)),
                )
            });
            rec.span("drop", |_| drop((vanilla, tuned)));
            Outcome {
                op,
                wall_s,
                virtual_s: tuned_s,
                fingerprint,
                failed: false,
                span_op: 0,
                facts: Facts::Compare(Box::new(CompareFacts {
                    vanilla: facts.0,
                    tuned: facts.1,
                    db,
                    test_runs,
                    improvement_pct: 100.0 * (vanilla_s - tuned_s) / vanilla_s,
                })),
            }
        }
        Op::Serve => {
            let cfg = env.server_config(Mode::Default, &sink);
            let served = rec.span("jobserver::serve", |_| jobserver::serve(&env.jobs, &cfg));
            let wall_s = sink.wall_now() - start;
            rec.span("fingerprint", |_| serve_done(env, wall_s, served))
        }
    }
}
