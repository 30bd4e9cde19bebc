//! Per-layer metrics of one traced run, from four sources only: the
//! benchmark's own spans, wall events the program's sink already emits,
//! public counters of finished contexts and reports, and layer drives.

use crate::drives;
use crate::metrics::Values;
use crate::programs::Program;
use crate::spans::{
    bench_spans, covered, interval_of, program_intervals, uint_arg, BenchSpan, Interval,
};
use crate::stats::median;
use crate::suites::{Env, Facts, Mode, Op, Outcome, RunFacts, Workload};
use engine::TraceSink;
use jobserver::{Interleave, ServeReport};
use std::time::Instant;
use trace::Event;

/// Benchmark spans that are one call running engine jobs: the time inside
/// them is either the program's data plane or its driver.
const PROGRAM_CALLS: [&str; 4] = ["execute", "vanilla_run", "tuned_run", "jobserver::serve"];

/// Median wall seconds of `op` over the passes.
fn op_median(passes: &[Vec<Outcome>], op: Op) -> f64 {
    let samples: Vec<f64> = passes
        .iter()
        .flatten()
        .filter(|o| o.op == op)
        .map(|o| o.wall_s)
        .collect();
    median(&samples)
}

fn inside(outer: Interval, inner: Interval) -> bool {
    inner.start >= outer.start && inner.end <= outer.end
}

/// What the spans and facts of one traced pass add up to.
#[derive(Default)]
struct PassTotals {
    program_s: f64,
    dataplane_s: f64,
    tasks: u64,
    source_records: u64,
    shuffle_bytes: u64,
}

fn pass_totals(
    pass: &[Outcome],
    spans: &[BenchSpan],
    events: &[Event],
    dataplane: &[Interval],
) -> PassTotals {
    let mut t = PassTotals::default();
    for outcome in pass {
        let calls = spans
            .iter()
            .filter(|s| s.op == outcome.span_op && PROGRAM_CALLS.contains(&s.name.as_str()));
        for call in calls {
            t.program_s += call.at.len();
            t.dataplane_s += covered(call.at, dataplane);
            if matches!(outcome.facts, Facts::Serve(_)) {
                // The tenant contexts are gone with `serve`; the stage
                // spans they emitted carry their task counts.
                t.tasks += events
                    .iter()
                    .filter(|e| e.cat == "pipeline")
                    .filter(|e| interval_of(e).is_some_and(|i| inside(call.at, i)))
                    .filter_map(|e| uint_arg(e, "tasks"))
                    .sum::<u64>();
            }
        }
    }
    for f in run_facts_of(pass) {
        t.tasks += f.tasks;
        t.source_records += f.source_records;
        t.shuffle_bytes += f.shuffle_write_bytes;
    }
    t
}

fn run_facts_of(pass: &[Outcome]) -> Vec<&RunFacts> {
    pass.iter()
        .flat_map(|o| match &o.facts {
            Facts::Run(f) => vec![f.as_ref()],
            Facts::Compare(c) => vec![&c.vanilla, &c.tuned],
            _ => Vec::new(),
        })
        .collect()
}

/// Median length of the benchmark spans called `name`.
fn span_median(spans: &[BenchSpan], name: &str) -> f64 {
    let lens: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.at.len())
        .collect();
    median(&lens)
}

/// Fills every per-layer metric that applies to the workload. `untraced`
/// and `traced` are the timed passes of this process; the drives run here
/// unless `quick`.
pub fn fill(
    env: &Env,
    untraced: &[Vec<Outcome>],
    traced: &[Vec<Outcome>],
    events: &[Event],
    quick: bool,
    v: &mut Values,
) {
    let spans = bench_spans(events);
    // `pipeline` spans are the pipelined executor's stages, `phase` spans
    // the barrier engine's compute/bucketize phases; together they are the
    // data plane of either engine.
    let dataplane = program_intervals(events, &["pipeline", "phase"], |_| true);
    let first = &traced[0];
    let totals: Vec<PassTotals> = traced
        .iter()
        .map(|p| pass_totals(p, &spans, events, &dataplane))
        .collect();
    let med = |f: fn(&PassTotals) -> f64| median(&totals.iter().map(f).collect::<Vec<_>>());
    let program_s = med(|t| t.program_s);

    v.set("engine.dataplane_s", med(|t| t.dataplane_s));
    v.set("engine.driver_s", med(|t| t.program_s - t.dataplane_s));
    v.set("engine.tasks", totals[0].tasks as f64);
    v.set(
        "engine.us_per_task",
        1e6 * program_s / totals[0].tasks.max(1) as f64,
    );
    v.set(
        "engine.records_per_s",
        totals[0].source_records as f64 / program_s,
    );
    v.set("engine.shuffle_bytes", totals[0].shuffle_bytes as f64);
    let splits = events
        .iter()
        .filter(|e| e.cat == "adaptive" && e.name.ends_with("adaptive split"))
        .count();
    v.set("engine.adaptive.splits", (splits / traced.len()) as f64);

    let facts = run_facts_of(first);
    let sum = |f: fn(&RunFacts) -> u64| facts.iter().map(|r| f(r)).sum::<u64>() as f64;
    v.set("blockstore.read_txns", sum(|r| r.store_reads));
    v.set("blockstore.write_txns", sum(|r| r.store_writes));
    v.set(
        "engine.pool.stolen_ratio",
        sum(|r| r.pool.stolen) / sum(|r| r.pool.items).max(1.0),
    );
    v.set("engine.pool.idle_epochs", sum(|r| r.pool.idle_epochs));

    for o in first {
        let Op::Run(program) = o.op else { continue };
        v.set(
            &format!("workloads.{}.run_s", program.name()),
            op_median(untraced, o.op),
        );
        let Facts::Run(f) = &o.facts else { continue };
        match program {
            Program::KMeansGoverned => {
                v.set("memman.evictions", f.mem.evictions as f64);
                v.set("memman.spill_bytes", f.mem.spill_bytes as f64);
                v.set("memman.rereads", f.mem.rereads as f64);
                v.set(
                    "memman.governed_over_free",
                    op_median(untraced, o.op) / op_median(untraced, Op::Run(Program::KMeans)),
                );
            }
            Program::SqlFaulted => {
                v.set("faults.retried_tasks", f.faults.retried_tasks as f64);
                v.set(
                    "faults.recomputed_map_tasks",
                    f.faults.recomputed_map_tasks as f64,
                );
                v.set(
                    "faults.faulted_over_free",
                    op_median(untraced, o.op) / op_median(untraced, Op::Run(Program::Sql)),
                );
            }
            _ => {}
        }
    }

    let untraced_pass_s: f64 = env
        .workload
        .pass()
        .iter()
        .map(|&op| op_median(untraced, op))
        .sum();
    let traced_pass_s = median(
        &traced
            .iter()
            .map(|p| p.iter().map(|o| o.wall_s).sum())
            .collect::<Vec<f64>>(),
    );
    v.set(
        "trace.overhead_pct",
        100.0 * (traced_pass_s - untraced_pass_s) / untraced_pass_s,
    );
    v.set("trace.events", (events.len() / traced.len()) as f64);

    if let Some(Facts::Compare(c)) = first.first().map(|o| &o.facts) {
        v.set("chopper.vanilla_run_s", span_median(&spans, "vanilla_run"));
        v.set("chopper.testrun.train_s", span_median(&spans, "train"));
        v.set("chopper.tuned_run_s", span_median(&spans, "tuned_run"));
        v.set("chopper.testrun.runs", c.test_runs as f64);
        v.set("chopper.improvement_pct", c.improvement_pct);
        // Grid cells at the top of the grid, as a share of training: what
        // ties this workload to `batch_wide`.
        let train = spans
            .iter()
            .find(|s| s.op == first[0].span_op && s.name == "train")
            .expect("traced compare has a train span");
        let wide = program_intervals(events, &["testrun"], |e| {
            uint_arg(e, "partitions") == Some(1200)
        });
        v.set(
            "chopper.testrun.wide_cell_share",
            covered(train.at, &wide) / train.at.len(),
        );
    }
    if let Some(Facts::Serve(report)) = first.first().map(|o| &o.facts) {
        serve_counters(env, report, op_median(untraced, Op::Serve), v);
    }

    if !quick {
        drive_all(env, untraced, first, v);
    }
}

fn serve_counters(env: &Env, report: &ServeReport, wall_s: f64, v: &mut Values) {
    let jobs = env.jobs.jobs.len() as f64;
    v.set("jobserver.server.us_per_job", 1e6 * wall_s / jobs);
    v.set("jobserver.jobs_per_s", jobs / wall_s);
    v.set(
        "jobserver.cache_hit_ratio",
        report.cache_hits as f64 / report.completed.max(1) as f64,
    );
    v.set("jobserver.rejects", report.rejected.len() as f64);
    v.set("jobserver.mem_stalls", report.mem_stalls as f64);
    v.set("jobserver.p50_latency_vs", report.p50_latency);
    v.set("jobserver.p99_interactive_vs", report.p99_interactive);
}

/// Runs one drive and prints how long the whole of it took.
fn drive<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    println!(
        "drive      {name:<16} took {:.2} s",
        t.elapsed().as_secs_f64()
    );
    out
}

fn drive_all(env: &Env, untraced: &[Vec<Outcome>], first: &[Outcome], v: &mut Values) {
    let p = env.workload.parallelism();
    let off = TraceSink::disabled();
    let opts = match env.workload {
        Workload::ServeMix => env.server_config(Mode::Default, &off).engine,
        _ => env.engine_options(&off),
    };
    v.set(
        "engine.context_new_us",
        drive("context_new", || drives::context_new_us(&opts)),
    );

    let part = drive("partitioner", || drives::partitioner(env.seed, p));
    v.set("engine.partitioner.range_build_us", part.range_build_us);
    v.set(
        "engine.partitioner.assign_ns_per_key",
        part.assign_ns_per_key,
    );

    let sh = drive("shuffle", || drives::shuffle(env.seed, p));
    v.set(
        "engine.shuffle.bucketize_rows_ns_per_rec",
        1e9 * sh.bucketize_rows.slope,
    );
    v.set(
        "engine.shuffle.bucketize_cols_ns_per_rec",
        1e9 * sh.bucketize_cols.slope,
    );
    v.set("engine.batch.build_ns_per_rec", 1e9 * sh.batch_build.slope);
    v.set(
        "engine.shuffle.bucketize_us_per_task",
        1e6 * sh.bucketize_empty_s,
    );
    v.set("engine.shuffle.merge_ns_per_rec", 1e9 * sh.merge.slope);
    v.set("engine.shuffle.merge_us_per_task", 1e6 * sh.merge_empty_s);
    println!(
        "drive      per-task cost, fitted intercept vs empty task: bucketize {:.2} vs {:.2} us, merge {:.2} vs {:.2} us",
        1e6 * sh.bucketize_rows.intercept,
        1e6 * sh.bucketize_empty_s,
        1e6 * sh.merge.intercept,
        1e6 * sh.merge_empty_s
    );

    v.set(
        "engine.pool.dispatch_us_per_item",
        drive("pool", || drives::pool_dispatch_us_per_item(env.workers, p)),
    );

    // The batch suites have timed `sql` at this P already.
    let sql_s = op_median(untraced, Op::Run(Program::Sql));
    let (speed, sql_ctx) = drive("speedups", || {
        drives::speedups(env, p, sql_s.is_finite().then_some(sql_s))
    });
    v.set("engine.workers_speedup", speed.workers);
    v.set("engine.pipeline_speedup", speed.pipeline);
    v.set("engine.batch_speedup", speed.batch);

    let net = drive("netsim", || drives::netsim(env.seed, p));
    v.set("netsim.flow_events_per_s", net.flow_events_per_s);
    v.set("netsim.queue_events_per_s", net.queue_events_per_s);

    let gen = drive("datagen", || drives::datagen(env.seed, p));
    v.set("workloads.datagen.points_per_s", gen.points_per_s);
    v.set("workloads.datagen.rows_per_s", gen.rows_per_s);

    // Stages to replay and a context to plan: the traced pass's own,
    // except that `serve` keeps its tenant contexts to itself — there the
    // job drive's runtime stands in.
    let mut replay_facts: Vec<RunFacts> = run_facts_of(first).into_iter().cloned().collect();
    if env.workload == Workload::ServeMix {
        let jobs = drive("jobs", || drives::jobs(&env.jobs, opts.clone()));
        v.set("jobserver.jobs.cold_us", jobs.cold_us);
        v.set("jobserver.jobs.warm_us", jobs.warm_us);
        v.set("jobserver.trace_file.roundtrip_ms", jobs.trace_roundtrip_ms);
        v.set(
            "engine.stage.plan_job_us",
            drives::plan_job_us(&jobs.runtime.ctx),
        );
        let facts = crate::suites::run_facts(&jobs.runtime.ctx);
        v.set(
            "engine.pool.stolen_ratio",
            facts.pool.stolen as f64 / facts.pool.items.max(1) as f64,
        );
        v.set("engine.pool.idle_epochs", facts.pool.idle_epochs as f64);
        replay_facts.push(facts);

        // The same trace served without tenant threads, same worker count.
        let cfg = jobserver::ServerConfig {
            interleave: Interleave::Serial,
            ..env.server_config(Mode::Default, &off)
        };
        let serial_s = drive("serial_serve", || {
            crate::stats::median_secs(3, || {
                let t = Instant::now();
                jobserver::serve(&env.jobs, &cfg).expect("serial serve");
                t.elapsed().as_secs_f64()
            })
        });
        let threads_s = 1e-6 * v.get("jobserver.server.us_per_job") * env.jobs.jobs.len() as f64;
        v.set("jobserver.threads_over_serial", threads_s / serial_s);
    } else {
        v.set("engine.stage.plan_job_us", drives::plan_job_us(&sql_ctx));
    }
    drop(sql_ctx);

    let replay = drive("replay", || {
        drives::replay(&opts.cluster, &replay_facts.iter().collect::<Vec<_>>())
    });
    v.set("simcluster.replay_s", replay.replay_s);
    v.set("simcluster.us_per_task", replay.us_per_task);
    v.set("simcluster.rack_us_per_task", replay.rack_us_per_task);
    v.set("simcluster.events", replay.events as f64);

    if let Some(Facts::Compare(c)) = first.first().map(|o| &o.facts) {
        let ch = drive("chopper", || drives::chopper(env, &c.db));
        v.set("chopper.model.fit_us", ch.fit_us);
        v.set("chopper.optimizer.plan_ms", ch.plan_ms);
        v.set("chopper.adaptive.replan_us", ch.replan_us);
        v.set("chopper.db.json_roundtrip_ms", ch.json_roundtrip_ms);
        v.set("chopper.db.bytes", ch.db_bytes as f64);
    }
}
