//! CI regression gate over the virtual-clock figures and invariants.
//!
//! ```text
//! cargo run --release -p bench --bin perfgate
//! cargo run --release -p bench --bin perfgate -- \
//!     --jobserver-baseline results/BENCH_jobserver.json --tolerance 0.15 \
//!     [--jobserver-fresh-out results/BENCH_jobserver.fresh.json]
//! ```
//!
//! No engine kernel is timed here: the host wall-clock of the data plane
//! is gated by the parent-vs-change run of `BENCHMARK.json`
//! (`benchmark/`) alone. Exits 1 if any check below fails, 2 on a bad
//! command line.
//!
//! The job-server gate re-serves the multi-tenant contention sweep and
//! compares its *virtual-clock* p99 latency and throughput against
//! `results/BENCH_jobserver.json` within the tolerance (default 15%), with
//! two absolute floors: 16-tenant throughput at least 2x the serial
//! server, and fair-share beating FIFO on interactive p99 under
//! contention.
//!
//! The memory and fault gates check exact invariants of small governed
//! and faulted runs (see `mem_gate`, `fault_gate`).
//!
//! The netsim gate holds the topology subsystem to its scale contract:
//! event-queue and 1000-node-fabric churn at ≥ 1M events/s, the
//! 1000-node fig_scale cells re-tuned under a wall-clock budget with at
//! least one stage flipped on the oversubscribed fabric, and the fresh
//! cells bit-identical to the committed `results/fig_scale.txt`.
//!
//! The adaptive gate re-runs the skewed-aggregation comparison
//! (virtual clock) and holds it to the committed
//! `results/BENCH_adaptive.json` bit-identically, plus hard floors: the
//! adaptive run at least 1.3x faster than the static run with
//! bit-identical sorted output tables, the hot range partition actually
//! split, and the repeated hash aggregation actually retuned.

use bench::jobserver::{jobserver_gate_checks, measure_jobserver, JobserverReport};
use engine::{Context, EngineOptions, FaultCounters, FaultPlan, Key, MemCounters, Record, Value};
use simcluster::uniform_cluster;
use std::sync::Arc;

/// Deterministic memory-governance gate: the storage layer must stay
/// inert under a generous budget, spill under a tight budget with fat
/// tasks, and stop spilling once the partition count is raised — the
/// exact mechanism the memory-aware optimizer relies on. These runs are
/// virtual-clock simulations, so the assertions are exact, not
/// tolerance-banded.
fn mem_gate() -> Vec<(String, bool)> {
    let run = |partitions: usize, executor_mem: Option<u64>| -> MemCounters {
        let mut ctx = Context::new(EngineOptions {
            cluster: uniform_cluster(3, 4, 2.0),
            default_parallelism: partitions,
            workers: 2,
            executor_mem,
            ..EngineOptions::default()
        });
        // Distinct keys so map-side combine cannot collapse the shuffle:
        // per-task write volume scales as 1/P.
        let data: Vec<Record> = (0..3000)
            .map(|i| Record::new(Key::Int(i), Value::Int(i)))
            .collect();
        let src = ctx.parallelize(data, partitions, "src");
        let summed = ctx.reduce_by_key(
            src,
            Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int())),
            None,
            1e-6,
            "sum",
        );
        ctx.collect(summed, "mem-gate");
        ctx.mem_counters()
    };
    // Cache-squeeze shape (two cached RDDs under a bounded store): the
    // eviction machinery itself must engage.
    let cache_run = |executor_mem: u64| -> MemCounters {
        let mut ctx = Context::new(EngineOptions {
            cluster: uniform_cluster(3, 4, 2.0),
            default_parallelism: 8,
            workers: 2,
            executor_mem: Some(executor_mem),
            ..EngineOptions::default()
        });
        let data: Vec<Record> = (0..3000)
            .map(|i| Record::new(Key::Int(i % 89), Value::Int(i)))
            .collect();
        let src = ctx.parallelize(data, 8, "src");
        let mapped = ctx.map(
            src,
            Arc::new(|r: &Record| Record::new(r.key.clone(), Value::Int(r.value.as_int() * 5))),
            1e-7,
            "mapped",
        );
        ctx.cache(mapped);
        let filtered = ctx.filter(
            mapped,
            Arc::new(|r: &Record| r.value.as_int() % 3 != 0),
            1e-7,
            "filtered",
        );
        ctx.cache(filtered);
        let reduced = ctx.reduce_by_key(
            filtered,
            Arc::new(|a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int())),
            None,
            1e-6,
            "reduced",
        );
        ctx.collect(reduced, "materialize");
        let grouped = ctx.group_by_key(
            filtered,
            Some(engine::PartitionerSpec::range(6)),
            1e-6,
            "grouped",
        );
        ctx.count(grouped, "group");
        ctx.mem_counters()
    };

    let generous = run(4, Some(1 << 40));
    let naive = run(4, Some(16 * 1024));
    let tuned = run(64, Some(16 * 1024));
    let squeezed = cache_run(28 * 1024);
    vec![
        (
            format!("generous budget stays inert ({generous:?})"),
            generous == MemCounters::default(),
        ),
        (
            format!("tight budget + fat tasks spill (spills={})", naive.spills),
            naive.spills > 0 && naive.spill_bytes > 0,
        ),
        (
            format!("tight budget + high P spill-free (spills={})", tuned.spills),
            tuned.spills == 0 && tuned.spill_bytes == 0,
        ),
        (
            format!("bounded cache evicts (evictions={})", squeezed.evictions),
            squeezed.evictions > 0,
        ),
    ]
}

/// Deterministic fault-recovery gate, exact virtual-clock invariants:
/// an inert plan is bit-identical to no plan, an active plan injects
/// faults without moving results, and a node loss blacklists the node
/// and recomputes its live map outputs through lineage.
fn fault_gate() -> Vec<(String, bool)> {
    // Results + virtual stage metrics + fault counters of a two-job run
    // (cached map feeding two shuffles) under the given plan. Per-record
    // costs are sized so the virtual clock passes the lossy plan's t=20
    // node loss while the first shuffle's map outputs are live.
    let run = |faults: Option<FaultPlan>| -> (String, String, FaultCounters) {
        let mut ctx = Context::new(EngineOptions {
            cluster: uniform_cluster(3, 4, 2.0),
            default_parallelism: 8,
            workers: 2,
            faults,
            ..EngineOptions::default()
        });
        let data: Vec<Record> = (0..4000)
            .map(|i| Record::new(Key::Int(i % 97), Value::Int(i)))
            .collect();
        let src = ctx.parallelize(data, 8, "src");
        let mapped = ctx.map(
            src,
            Arc::new(|r: &Record| Record::new(r.key.clone(), Value::Int(r.value.as_int() * 3))),
            0.25,
            "scale",
        );
        ctx.cache(mapped);
        let sum = |a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int());
        let reduced = ctx.reduce_by_key(mapped, Arc::new(sum), None, 0.02, "sum");
        let mut out = ctx.collect(reduced, "first");
        let again = ctx.reduce_by_key(mapped, Arc::new(sum), None, 0.02, "sum-again");
        out.extend(ctx.collect(again, "second"));
        out.sort_by(|a, b| a.key.cmp(&b.key));
        (
            format!("{out:?}"),
            format!("{:?}", ctx.all_stages()),
            ctx.fault_counters(),
        )
    };

    let plan = |text: &str| FaultPlan::from_text(text).expect("shipped plan parses");
    let (clean_out, clean_stages, _) = run(None);
    let (inert_out, inert_stages, _) = run(Some(FaultPlan::default()));
    let (smoke_out, _, smoke) = run(Some(plan(include_str!(
        "../../../../plans/plan_smoke.plan"
    ))));
    let (lossy_out, _, lossy) = run(Some(plan(include_str!(
        "../../../../plans/plan_lossy.plan"
    ))));
    vec![
        (
            "inert fault plan is bit-identical to no plan".to_string(),
            inert_out == clean_out && inert_stages == clean_stages,
        ),
        (
            format!(
                "smoke plan injects retries without moving results (retried={})",
                smoke.retried_tasks
            ),
            smoke.retried_tasks > 0 && smoke_out == clean_out,
        ),
        (
            format!(
                "lossy plan loses the node and recovers (lost={} recomputed={} rehomed={})",
                lossy.nodes_lost, lossy.recomputed_map_tasks, lossy.replica_rehomed_partitions
            ),
            lossy.nodes_lost == 1
                && lossy.recomputed_map_tasks + lossy.replica_rehomed_partitions > 0
                && lossy_out == clean_out,
        ),
    ]
}

/// Event-throughput floor for the netsim structures (events per second),
/// per the fig_scale contract: the indexed queue and the 1000-node flow
/// fabric must both sustain at least a million events per second or the
/// scale sweep stops being tractable.
const NETSIM_EVENTS_PER_SEC_FLOOR: f64 = 1e6;

/// Wall-clock budget for re-tuning the two 1000-node fig_scale cells.
/// The committed sweep covers 6/96/1000 nodes; perfgate re-runs only the
/// 1000-node pair, so this bounds the whole sweep at roughly 3x.
const SCALE_CELLS_BUDGET_SECS: f64 = 150.0;

/// The netsim / topology-sweep gate. Four floors:
///
/// 1. event-queue churn ≥ 1M events/s (interleaved push/pop, the exact
///    structure the 1000-node sweep's completion stream runs through);
/// 2. flow churn on the 1000-node rack fabric ≥ 1M events/s through the
///    max-min engine (schedules + pops, including rate-change
///    reschedules);
/// 3. both 1000-node fig_scale cells re-tune inside the wall-clock
///    budget, each through the event loop, with the rack cell flipping
///    at least one stage's choice — the headline claim of the figure;
/// 4. the fresh cells reproduce `results/fig_scale.txt` verbatim
///    (whitespace-canonicalized rows) — a bit-identity floor on both
///    fabrics' committed figures.
fn scale_gate() -> Vec<(String, bool)> {
    use bench::scale;

    let (qe, qs) = scale::queue_churn(4_000_000);
    let queue_rate = qe as f64 / qs.max(1e-9);
    let (fe, fs) = scale::fabric_churn(20_000);
    let fabric_rate = fe as f64 / fs.max(1e-9);

    eprintln!("[perfgate] re-tuning the 1000-node fig_scale cells (virtual clock)...");
    let start = std::time::Instant::now();
    let flat = scale::run_cell(1000, simcluster::Topology::Flat);
    let rack = scale::run_cell(1000, scale::rack_topology(1000));
    let elapsed = start.elapsed().as_secs_f64();

    let committed = std::fs::read_to_string("results/fig_scale.txt").unwrap_or_default();
    let committed_rows: std::collections::HashSet<String> = committed
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect();
    let canon = |cell: &scale::CellResult| {
        cell.row_cells()
            .join(" ")
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" ")
    };
    let flipped = flat.decisions != rack.decisions;
    let cell_events = [flat.events, rack.events];

    vec![
        (
            format!("netsim event-queue churn sustains >= 1M events/s ({queue_rate:.2e}/s)"),
            queue_rate >= NETSIM_EVENTS_PER_SEC_FLOOR,
        ),
        (
            format!("netsim 1000-node fabric churn sustains >= 1M events/s ({fabric_rate:.2e}/s)"),
            fabric_rate >= NETSIM_EVENTS_PER_SEC_FLOOR,
        ),
        (
            format!(
                "1000-node flat+rack cells re-tune in {elapsed:.1}s \
                 (budget {SCALE_CELLS_BUDGET_SECS:.0}s) over {cell_events:?} simulation \
                 events, rack flips a stage: {flipped}"
            ),
            elapsed <= SCALE_CELLS_BUDGET_SECS && flipped,
        ),
        (
            "fresh 1000-node cells match committed results/fig_scale.txt bit-identically"
                .to_string(),
            committed_rows.contains(&canon(&flat)) && committed_rows.contains(&canon(&rack)),
        ),
    ]
}

/// The adaptive-execution gate: the skewed-aggregation comparison is
/// virtual-clock deterministic, so the fresh report must match the
/// committed `results/BENCH_adaptive.json` byte for byte, on top of the
/// absolute floors ([`bench::adaptive::ADAPTIVE_SPEEDUP_FLOOR`]x
/// speedup, bit-identical output tables, split and replan both firing).
fn adaptive_gate() -> Vec<(String, bool)> {
    let committed = std::fs::read_to_string("results/BENCH_adaptive.json").unwrap_or_default();
    let fresh = bench::adaptive::measure_adaptive();
    bench::adaptive::adaptive_gate_checks(&committed, &fresh)
}

fn main() {
    let mut jobserver_baseline_path = "results/BENCH_jobserver.json".to_string();
    let mut tolerance = 0.15f64;
    let mut jobserver_fresh_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--jobserver-baseline" => jobserver_baseline_path = value("--jobserver-baseline"),
            "--tolerance" => {
                let raw = value("--tolerance");
                tolerance = raw.parse().unwrap_or_else(|_| {
                    eprintln!("error: bad --tolerance '{raw}' (fraction, e.g. 0.15)");
                    std::process::exit(2);
                });
            }
            "--jobserver-fresh-out" => jobserver_fresh_out = Some(value("--jobserver-fresh-out")),
            other => {
                eprintln!("error: unknown argument '{other}'");
                eprintln!(
                    "usage: perfgate [--jobserver-baseline FILE] [--tolerance F] \
                     [--jobserver-fresh-out FILE]"
                );
                std::process::exit(2);
            }
        }
    }
    if !(0.0..1.0).contains(&tolerance) {
        eprintln!("error: --tolerance must be in [0, 1), got {tolerance}");
        std::process::exit(2);
    }

    let jobserver_baseline = {
        let text = std::fs::read_to_string(&jobserver_baseline_path).unwrap_or_else(|e| {
            eprintln!("error: read baseline {jobserver_baseline_path}: {e}");
            std::process::exit(2);
        });
        JobserverReport::parse(&text).unwrap_or_else(|e| {
            eprintln!("error: {jobserver_baseline_path}: {e}");
            std::process::exit(2);
        })
    };

    let mut failed = false;
    eprintln!("[perfgate] serving the multi-tenant contention sweep (virtual clock)...");
    // One run suffices: every figure is virtual-clock deterministic.
    let jobserver_fresh = measure_jobserver();
    if let Some(path) = &jobserver_fresh_out {
        std::fs::write(path, jobserver_fresh.to_json()).unwrap_or_else(|e| {
            eprintln!("error: write {path}: {e}");
            std::process::exit(2);
        });
    }
    for (name, ok) in jobserver_gate_checks(&jobserver_baseline, &jobserver_fresh, tolerance) {
        println!("{:<80} {}", name, if ok { "ok" } else { "REGRESSED" });
        failed |= !ok;
    }
    eprintln!("[perfgate] checking memory-governance invariants...");
    for (name, ok) in mem_gate() {
        println!("{:<80} {}", name, if ok { "ok" } else { "VIOLATED" });
        failed |= !ok;
    }
    eprintln!("[perfgate] checking fault-recovery invariants...");
    for (name, ok) in fault_gate() {
        println!("{:<80} {}", name, if ok { "ok" } else { "VIOLATED" });
        failed |= !ok;
    }
    eprintln!("[perfgate] checking netsim throughput + fig_scale floors...");
    for (name, ok) in scale_gate() {
        println!("{:<80} {}", name, if ok { "ok" } else { "VIOLATED" });
        failed |= !ok;
    }
    eprintln!("[perfgate] re-running the adaptive-execution comparison (virtual clock)...");
    for (name, ok) in adaptive_gate() {
        println!("{:<80} {}", name, if ok { "ok" } else { "VIOLATED" });
        failed |= !ok;
    }
    if failed {
        eprintln!(
            "perfgate: FAIL — a job-server figure moved more than {:.0}% from \
             {jobserver_baseline_path}, or a floor or invariant above was missed",
            tolerance * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "perfgate: ok — job server within {:.0}% of {jobserver_baseline_path}, every floor \
         and invariant held",
        tolerance * 100.0
    );
}
