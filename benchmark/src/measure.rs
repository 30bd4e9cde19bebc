//! One benchmark process: warm up, run timed passes back to back (closed
//! loop, one client), check every operation against the oracle, and fill
//! the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`).

use crate::metrics::Values;
use crate::programs::Program;
use crate::spans::{bench_spans, worst_self_time_gap, Recorder};
use crate::stats::{median, quartiles};
use crate::suites::{run_op, Env, Facts, Mode, Op, Outcome, Workload};
use crate::{layers, sys};
use engine::{TraceSink, WorkloadConf};
use jobserver::{Interleave, ServerConfig};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use trace::ClockFilter;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed passes may take. A pass that would end after it
    /// is not started; the first pass always runs.
    pub seconds: f64,
    pub trace: bool,
    /// One timed pass and no layer drives.
    pub quick: bool,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

/// The untimed first operations of the process: page faults, heap growth
/// and lazy initialisation land here and in `setup_s`, not in the timed
/// passes. Where a whole pass takes ten seconds or more, its first
/// operation stands in for it.
fn warm_up(env: &mut Env) {
    let off = TraceSink::disabled();
    match env.workload {
        // A whole pass; `kmeans_governed`'s run also sizes its memory.
        Workload::BatchFat => {
            for &op in env.workload.pass() {
                if op == Op::Run(Program::KMeansGoverned) {
                    size_governed_mem(env);
                } else {
                    run_op(env, op, Mode::Default, None);
                }
            }
        }
        Workload::BatchWide => {
            run_op(env, Op::Run(Program::Sql), Mode::Default, None);
        }
        // The first step of a `compare`: the full-scale vanilla run.
        Workload::TuneGrid => {
            let tuner = env.tuner(Mode::Default, &off);
            chopper::Workload::run_full(&env.sql(), &tuner.vanilla_opts, &WorkloadConf::new());
        }
        // The same trace served without tenant threads. Its memory peak is
        // the one `peak_rss_mb` reports: with tenant threads the peak
        // depends on which tenants' heavy jobs happen to coincide.
        Workload::ServeMix => {
            let cfg = ServerConfig {
                interleave: Interleave::Serial,
                ..env.server_config(Mode::Default, &off)
            };
            jobserver::serve(&env.jobs, &cfg).expect("warm-up serve");
        }
    }
}

/// Halves `kmeans_governed`'s executor memory from 16 MiB until a run
/// both spills and rereads, so the governed path is really exercised.
fn size_governed_mem(env: &mut Env) {
    loop {
        let opts = Program::KMeansGoverned.options(
            &env.engine_options(&TraceSink::disabled()),
            env.governed_mem,
        );
        let counters = Program::KMeansGoverned
            .execute(env.seed, &opts)
            .ctx
            .mem_counters();
        if counters.spills >= 1 && counters.rereads >= 1 {
            return;
        }
        assert!(
            env.governed_mem > 1 << 20,
            "kmeans_governed neither spilled nor reread down to 1 MiB"
        );
        env.governed_mem /= 2;
    }
}

struct Timed {
    passes: Vec<Vec<Outcome>>,
    /// Median over the passes of the CPU seconds one took.
    cpu_s_per_pass: f64,
    peak_rss_mib: f64,
}

fn timed_passes(env: &Env, seconds: f64, quick: bool, mut rec: Option<&mut Recorder>) -> Timed {
    let started = Instant::now();
    let mut passes: Vec<Vec<Outcome>> = Vec::new();
    let mut cpu_s = Vec::new();
    loop {
        let pass_started = Instant::now();
        let cpu_before = sys::cpu_seconds();
        let pass = env
            .workload
            .pass()
            .iter()
            .map(|&op| {
                let mut outcome = run_op(env, op, Mode::Default, rec.as_deref_mut());
                if rec.is_none() {
                    outcome.facts = Facts::None;
                }
                outcome
            })
            .collect();
        passes.push(pass);
        cpu_s.push(sys::cpu_seconds() - cpu_before);
        let next_ends = started.elapsed() + pass_started.elapsed();
        if quick || next_ends.as_secs_f64() > seconds {
            break;
        }
    }
    Timed {
        cpu_s_per_pass: median(&cpu_s),
        peak_rss_mib: sys::peak_rss_mib(),
        passes,
    }
}

/// Runs each operation of the pass once under the oracle's reference
/// options and counts the timed operations whose fingerprint differs (or
/// that failed outright). Returns `(attempted, failed)`.
fn oracle_check(env: &Env, passes: &[&[Outcome]]) -> (u64, u64) {
    // Reference runs are one-threaded, so they go side by side, as many at
    // a time as the host has workers for.
    let ops = env.workload.pass();
    let next = AtomicUsize::new(0);
    let references = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..env.workers.min(ops.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&op) = ops.get(i) else { break };
                let reference = run_op(env, op, Mode::Reference, None);
                references
                    .lock()
                    .expect("no reference run panics while holding this")
                    .push((i, reference));
            });
        }
    });
    let mut references = references.into_inner().expect("threads have ended");
    references.sort_by_key(|(i, _)| *i);

    let (mut attempted, mut failed) = (0, 0);
    for (i, reference) in references {
        let op = ops[i];
        if reference.failed {
            println!("oracle     {:<16} FAILED to run", op.name());
        }
        for pass in passes {
            let o = &pass[i];
            attempted += 1;
            if o.failed || reference.failed || o.fingerprint != reference.fingerprint {
                failed += 1;
                println!(
                    "mismatch   {:<16} fingerprint {:016x}, oracle {:016x}",
                    op.name(),
                    o.fingerprint,
                    reference.fingerprint
                );
            }
        }
    }
    (attempted, failed)
}

/// Prints one line per operation kind and returns `(wall_s, virtual_s)`
/// of one pass: the sum over its operations of the median run time, and
/// of the simulated-cluster seconds.
fn summarize(env: &Env, passes: &[Vec<Outcome>]) -> (f64, f64) {
    let (mut wall_s, mut virtual_s) = (0.0, 0.0);
    for (i, op) in env.workload.pass().iter().enumerate() {
        let samples: Vec<f64> = passes.iter().map(|p| p[i].wall_s).collect();
        let (q1, q3) = quartiles(&samples);
        println!(
            "op         {:<16} median {:.4} s  q1 {:.4}  q3 {:.4}  n {}  virtual {:.3} s",
            op.name(),
            median(&samples),
            q1,
            q3,
            samples.len(),
            passes[0][i].virtual_s
        );
        wall_s += median(&samples);
        virtual_s += passes[0][i].virtual_s;
    }
    (wall_s, virtual_s)
}

/// Runs the workload in this process. `started` is when the process began.
pub fn run(args: &RunArgs, started: Instant) -> RunResult {
    let workers = sys::nproc().min(4);
    println!(
        "benchmark  workload {} seed {} trace {} quick {} seconds {}",
        args.workload.name(),
        args.seed,
        args.trace as u8,
        args.quick,
        args.seconds
    );
    println!(
        "host       nproc {} workers {} rustc `{}` commit {}",
        sys::nproc(),
        workers,
        sys::rustc_version(),
        sys::commit()
    );
    let mut env = Env::new(args.workload, args.seed, workers);
    warm_up(&mut env);
    let setup_s = started.elapsed().as_secs_f64();
    let warm_peak_mib = sys::peak_rss_mib();
    let mut values = Values::default();

    if !args.trace {
        let timed = timed_passes(&env, args.seconds, args.quick, None);
        let (wall_s, virtual_s) = summarize(&env, &timed.passes);
        println!("passes     {} timed after 1 warm-up", timed.passes.len());
        values.set("setup_s", setup_s);
        values.set("wall_s", wall_s);
        values.set("cpu_s", timed.cpu_s_per_pass);
        values.set(
            "peak_rss_mb",
            match args.workload {
                Workload::ServeMix => warm_peak_mib,
                _ => timed.peak_rss_mib,
            },
        );
        values.set("virtual_s", virtual_s);
        let passes: Vec<&[Outcome]> = timed.passes.iter().map(Vec::as_slice).collect();
        let (attempted, failed) = oracle_check(&env, &passes);
        return RunResult {
            attempted,
            failed,
            values,
        };
    }

    // Half the time untraced — the baseline tracing overhead is measured
    // against, and the per-program medians — and half traced.
    let untraced = timed_passes(&env, args.seconds / 2.0, args.quick, None);
    let mut rec = Recorder::new(TraceSink::enabled());
    let traced = timed_passes(&env, args.seconds / 2.0, args.quick, Some(&mut rec));
    println!(
        "passes     {} untraced + {} traced after 1 warm-up",
        untraced.passes.len(),
        traced.passes.len()
    );
    summarize(&env, &untraced.passes);
    let passes: Vec<&[Outcome]> = untraced
        .passes
        .iter()
        .chain(&traced.passes)
        .map(Vec::as_slice)
        .collect();
    let (attempted, mut failed) = oracle_check(&env, &passes);

    let events = rec.sink().events();
    layers::fill(
        &env,
        &untraced.passes,
        &traced.passes,
        &events,
        args.quick,
        &mut values,
    );

    // Under each operation's root span the self times must add up to the
    // span: the layer shares are only as good as that.
    let gap = worst_self_time_gap(&bench_spans(&events));
    println!("spans      worst self-time gap {:.3e} s", gap);
    if gap > 1e-6 {
        println!("mismatch   self times do not sum to their operation's span");
        failed += 1;
    }

    let t = Instant::now();
    let json = rec.sink().chrome_json_filtered(ClockFilter::WallOnly);
    values.set("trace.export_ms", 1e3 * t.elapsed().as_secs_f64());
    let out = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let file = out.join(format!("trace_{}.json", args.workload.name()));
    match std::fs::create_dir_all(out).and_then(|()| std::fs::write(&file, json)) {
        Ok(()) => println!("trace      wrote {}", file.display()),
        Err(e) => println!("trace      could not write {}: {e}", file.display()),
    }
    RunResult {
        attempted,
        failed,
        values,
    }
}
