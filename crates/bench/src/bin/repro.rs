//! Regenerates every table and figure of the CHOPPER paper's evaluation,
//! the extension figures and the design-choice ablations.
//!
//! ```text
//! cargo run --release -p bench --bin repro -- all
//! cargo run --release -p bench --bin repro -- fig3 fig7 table3 ablation_gamma
//! ```
//!
//! Output goes to stdout and, per experiment, to `results/<id>.txt`;
//! stderr gets `[repro] <id> <secs> s` after each experiment.
//! Experiment ids: table1, fig2, fig3, fig4, sec2b, fig7, fig8, table2,
//! table3, fig9, fig10, fig11, fig12, fig13, fig14, fig_mem, fig_faults,
//! fig_tenants, fig_scale, jobserver, and the nine
//! `ablation_*` ids of [`bench::ablations`]. An unknown id prints this
//! list and exits 2 before anything runs.
//!
//! What gates what: every output is on the virtual clock and regenerates
//! verbatim, so CI's doc-sync step (`repro all`, then `git diff
//! --exit-code -- results/`) pins all of it to the committed bytes; the
//! invariants and floors the figures are read by (job-server fairness,
//! the 1000-node flip) are `#[test]`s under `cargo
//! test --workspace`; host wall-clock is measured by `benchmark/` alone
//! (the `BENCHMARK.json` parent-vs-change run). EXPERIMENTS.md "What
//! gates what" has the full map.
//!
//! `fig_scale` is the topology sweep: the same weak-scaled aggregation
//! auto-tuned at 6/96/1000 nodes on a flat fabric vs an oversubscribed
//! rack/spine fabric (netsim flow engine), with a flip table showing
//! where the tuned partition count or partitioner diverges.
//!
//! `jobserver` additionally writes `results/BENCH_jobserver.json`: the
//! multi-tenant contention sweep (1/4/16 tenants, fair vs FIFO, plus a
//! one-slot serial baseline). `fig_tenants` renders the same sweep as the
//! latency/throughput vs tenant-count figure.

use bench::{
    ablations, fmt_kb, fmt_time, kmeans_motivation, kmeans_paper, kmeans_reduced, paper_autotuner,
    paper_autotuner_degraded, paper_autotuner_mem, paper_engine, pca_paper, section, sql_paper,
    stages, wordcount_paper, Table,
};
use chopper::{Comparison, Workload, WorkloadDb};
use engine::{Context, FaultPlan, StageMetrics, WorkloadConf};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders one experiment's report.
type Render = fn(&mut Runner) -> String;

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [(&str, Render); 29] = [
    ("table1", |_| table1()),
    ("fig2", |r| r.motivation().fig2()),
    ("fig3", |r| r.motivation().fig3()),
    ("fig4", |r| r.motivation().fig4()),
    ("sec2b", |r| r.motivation().sec2b()),
    ("fig7", Runner::fig7),
    ("fig8", Runner::fig8),
    ("table2", Runner::table2),
    ("table3", Runner::table3),
    ("fig9", Runner::fig9),
    ("fig10", Runner::fig10),
    ("fig11", |r| {
        r.trace_figure("fig11", "CPU utilization (%)", |p| p.cpu_pct)
    }),
    ("fig12", |r| {
        r.trace_figure("fig12", "Memory utilization (%)", |p| p.mem_pct)
    }),
    ("fig13", |r| {
        r.trace_figure("fig13", "Packets tx+rx per second", |p| p.packets_per_sec)
    }),
    ("fig14", |r| {
        r.trace_figure("fig14", "Disk transactions per second", |p| {
            p.transactions_per_sec
        })
    }),
    ("fig_mem", |_| fig_mem()),
    ("fig_faults", |_| fig_faults()),
    ("fig_tenants", Runner::fig_tenants),
    ("fig_scale", |_| fig_scale()),
    ("jobserver", Runner::jobserver_bench),
    ("ablation_weights", |r| ablations::weights(&r.small_sql().1)),
    ("ablation_gamma", |_| ablations::gamma()),
    ("ablation_copartition", |_| ablations::copartition()),
    ("ablation_clamp", |r| ablations::clamp(&r.small_kmeans().1)),
    ("ablation_transfer", |r| {
        ablations::transfer(&r.small_kmeans().1)
    }),
    ("ablation_algorithms", |r| {
        let (vanilla, db) = r.small_sql();
        ablations::algorithms(vanilla, db)
    }),
    ("ablation_speculation", |_| ablations::speculation()),
    ("ablation_basis", |r| ablations::basis(&r.small_kmeans().1)),
    ("ablation_significance", |r| {
        ablations::significance(&r.pca_cmp().db)
    }),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids = || EXPERIMENTS.iter().map(|(id, _)| *id);
    let wanted: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        ids().collect()
    } else {
        args.iter().map(String::as_str).collect()
    };
    // Resolve every id before running anything.
    let mut runs = Vec::new();
    for id in wanted {
        let Some(experiment) = EXPERIMENTS.iter().find(|(known, _)| *known == id) else {
            eprintln!("unknown experiment id: {id}");
            eprintln!("experiments: all {}", ids().collect::<Vec<_>>().join(" "));
            std::process::exit(2);
        };
        runs.push(experiment);
    }
    std::fs::create_dir_all("results").expect("create results dir");

    let mut runner = Runner::default();
    for (id, render) in runs {
        let started = std::time::Instant::now();
        let report = render(&mut runner);
        println!("{report}");
        std::fs::write(format!("results/{id}.txt"), &report)
            .unwrap_or_else(|e| panic!("write results/{id}.txt: {e}"));
        eprintln!("[repro] {id} {:.1} s", started.elapsed().as_secs_f64());
    }
}

/// Caches the expensive artifacts shared by several experiments: the
/// `Comparison`s (each with its trained database) and the two small
/// `Autotuner::observe` results the [`bench::ablations`] share.
#[derive(Default)]
struct Runner {
    motivation: Option<MotivationSweep>,
    kmeans: Option<Comparison>,
    pca: Option<Comparison>,
    sql: Option<Comparison>,
    small_sql: Option<(Context, WorkloadDb)>,
    small_kmeans: Option<(Context, WorkloadDb)>,
    jobserver: Option<bench::jobserver::JobserverReport>,
}

impl Runner {
    fn motivation(&mut self) -> &MotivationSweep {
        self.motivation.get_or_insert_with(MotivationSweep::run)
    }

    fn kmeans_cmp(&mut self) -> &Comparison {
        self.kmeans.get_or_insert_with(|| {
            eprintln!("[repro] auto-tuning kmeans (vanilla + test grid + tuned run)...");
            paper_autotuner().compare(&kmeans_paper())
        })
    }

    fn pca_cmp(&mut self) -> &Comparison {
        self.pca.get_or_insert_with(|| {
            eprintln!("[repro] auto-tuning pca...");
            paper_autotuner().compare(&pca_paper())
        })
    }

    fn sql_cmp(&mut self) -> &Comparison {
        self.sql.get_or_insert_with(|| {
            eprintln!("[repro] auto-tuning sql...");
            paper_autotuner().compare(&sql_paper())
        })
    }

    fn small_sql(&mut self) -> &(Context, WorkloadDb) {
        self.small_sql.get_or_insert_with(|| {
            eprintln!("[repro] observing small sql (vanilla + test grid)...");
            paper_autotuner().observe(&ablations::small_sql())
        })
    }

    fn small_kmeans(&mut self) -> &(Context, WorkloadDb) {
        self.small_kmeans.get_or_insert_with(|| {
            eprintln!("[repro] observing small kmeans (vanilla + test grid)...");
            paper_autotuner().observe(&ablations::small_kmeans())
        })
    }

    // ---- Fig 7: overall execution time ---------------------------------
    fn fig7(&mut self) -> String {
        let mut t = Table::new(&["workload", "Spark", "CHOPPER", "improvement", "paper"]);
        let rows = [
            (
                "PCA",
                self.pca_cmp().vanilla_time(),
                self.pca_cmp().chopper_time(),
                "23.6%",
            ),
            (
                "KMeans",
                self.kmeans_cmp().vanilla_time(),
                self.kmeans_cmp().chopper_time(),
                "35.2%",
            ),
            (
                "SQL",
                self.sql_cmp().vanilla_time(),
                self.sql_cmp().chopper_time(),
                "33.9%",
            ),
        ];
        for (name, v, c, paper) in rows {
            t.row(vec![
                name.into(),
                fmt_time(v),
                fmt_time(c),
                format!("{:.1}%", 100.0 * (v - c) / v),
                paper.into(),
            ]);
        }
        section(
            "Fig 7 — Execution time of Spark vs CHOPPER",
            "Paper: CHOPPER improves PCA/KMeans/SQL by 23.6/35.2/33.9%. \
             Shape criterion: CHOPPER wins on all three workloads.",
            t.render(),
        )
    }

    // ---- Fig 8 / Tables II-III: KMeans breakdown -------------------------
    fn fig8(&mut self) -> String {
        let cmp = self.kmeans_cmp();
        let v = stages(&cmp.vanilla);
        let c = stages(&cmp.chopper);
        let mut t = Table::new(&["stage", "Spark", "CHOPPER"]);
        for i in 1..v.len().max(c.len()) {
            t.row(vec![
                i.to_string(),
                v.get(i).map(|s| fmt_time(s.duration())).unwrap_or_default(),
                c.get(i).map(|s| fmt_time(s.duration())).unwrap_or_default(),
            ]);
        }
        section(
            "Fig 8 — KMeans execution time per stage (stage 0 in Table II)",
            "Paper: CHOPPER reduces the execution time of (nearly) every stage. \
             Shape criterion: total and most stages improve; iteration stages \
             12-17 repeat with identical schemes.",
            t.render(),
        )
    }

    fn table2(&mut self) -> String {
        let cmp = self.kmeans_cmp();
        let v = &stages(&cmp.vanilla)[0];
        let c = &stages(&cmp.chopper)[0];
        let mut t = Table::new(&["system", "stage-0 time", "paper"]);
        t.row(vec![
            "CHOPPER".into(),
            fmt_time(c.duration()),
            "250s".into(),
        ]);
        t.row(vec!["Spark".into(), fmt_time(v.duration()), "372s".into()]);
        section(
            "Table II — Execution time for stage 0 in KMeans",
            "Shape criterion: CHOPPER's stage 0 is substantially faster than vanilla's.",
            t.render(),
        )
    }

    fn table3(&mut self) -> String {
        let cmp = self.kmeans_cmp();
        let v = stages(&cmp.vanilla);
        let c = stages(&cmp.chopper);
        let mut t = Table::new(&["stage", "CHOPPER P", "Spark P", "CHOPPER partitioner"]);
        for i in 0..v.len().max(c.len()) {
            let scheme = c
                .get(i)
                .and_then(|s| s.scheme)
                .map(|s| s.kind.to_string())
                .unwrap_or_default();
            t.row(vec![
                i.to_string(),
                c.get(i)
                    .map(|s| s.num_tasks.to_string())
                    .unwrap_or_default(),
                v.get(i)
                    .map(|s| s.num_tasks.to_string())
                    .unwrap_or_default(),
                scheme,
            ]);
        }
        section(
            "Table III — Repartition of stages using CHOPPER",
            "Paper: CHOPPER assigns per-stage counts (210/300/380/720...) instead of \
             a fixed 300; iterative stages 12-17 share one scheme. Shape criterion: \
             per-stage variety, iterations uniform, vanilla fixed at 300.",
            t.render(),
        )
    }

    // ---- Figs 9-10: SQL shuffle + per-stage times ------------------------
    fn fig9(&mut self) -> String {
        let cmp = self.sql_cmp();
        let v = stages(&cmp.vanilla);
        let c = stages(&cmp.chopper);
        let mut t = Table::new(&["stage", "Spark KB", "CHOPPER KB"]);
        for i in 0..4.min(v.len()).min(c.len()) {
            t.row(vec![
                i.to_string(),
                fmt_kb(v[i].shuffle_data()),
                fmt_kb(c[i].shuffle_data()),
            ]);
        }
        let j = 4;
        t.row(vec![
            format!("{j}*"),
            fmt_kb(v.get(j).map(|s| s.shuffle_data()).unwrap_or(0)),
            fmt_kb(c.get(j).map(|s| s.shuffle_data()).unwrap_or(0)),
        ]);
        section(
            "Fig 9 — SQL shuffle data per stage (stage 4 = join, marked *)",
            "Paper: CHOPPER shuffles less in stages 0-3; stage 4 moves the same \
             volume under both systems (4.7 GB there). Shape criterion: \
             CHOPPER <= Spark on stages 0-3; stage 4 volumes equal.",
            t.render(),
        )
    }

    fn fig10(&mut self) -> String {
        let cmp = self.sql_cmp();
        let v = stages(&cmp.vanilla);
        let c = stages(&cmp.chopper);
        let mut t = Table::new(&["stage", "Spark", "CHOPPER", "CHOPPER remote KB"]);
        for i in 0..v.len().max(c.len()) {
            t.row(vec![
                i.to_string(),
                v.get(i).map(|s| fmt_time(s.duration())).unwrap_or_default(),
                c.get(i).map(|s| fmt_time(s.duration())).unwrap_or_default(),
                c.get(i)
                    .map(|s| fmt_kb(s.remote_read_bytes))
                    .unwrap_or_default(),
            ]);
        }
        section(
            "Fig 10 — SQL execution time per stage (stage 4 = join)",
            "Paper: stage 4 takes 'comparatively shorter time' under CHOPPER \
             despite equal shuffle volume, thanks to co-partitioning. Shape \
             criterion: CHOPPER's join stage is faster and reads locally \
             (remote bytes ~0).",
            t.render(),
        )
    }

    // ---- Figs 11-14: utilization traces ----------------------------------
    fn trace_figure(
        &mut self,
        id: &str,
        label: &str,
        metric: fn(&simcluster::TracePoint) -> f64,
    ) -> String {
        let series: Vec<(String, Vec<simcluster::TracePoint>)> = vec![
            (
                "PCA-Spark".into(),
                self.pca_cmp().vanilla.sim().trace().points(),
            ),
            (
                "PCA-CHOPPER".into(),
                self.pca_cmp().chopper.sim().trace().points(),
            ),
            (
                "KMeans-Spark".into(),
                self.kmeans_cmp().vanilla.sim().trace().points(),
            ),
            (
                "KMeans-CHOPPER".into(),
                self.kmeans_cmp().chopper.sim().trace().points(),
            ),
            (
                "SQL-Spark".into(),
                self.sql_cmp().vanilla.sim().trace().points(),
            ),
            (
                "SQL-CHOPPER".into(),
                self.sql_cmp().chopper.sim().trace().points(),
            ),
        ];
        let max_len = series.iter().map(|(_, p)| p.len()).max().unwrap_or(0);
        let header: Vec<&str> = std::iter::once("time(s)")
            .chain(series.iter().map(|(n, _)| n.as_str()))
            .collect();
        let mut t = Table::new(&header);
        // Sample every other bucket (20 s steps, like the paper's x-axis).
        for b in (0..max_len).step_by(2) {
            let mut row = vec![format!("{}", b * 10)];
            for (_, pts) in &series {
                row.push(
                    pts.get(b)
                        .map(|p| format!("{:.1}", metric(p)))
                        .unwrap_or_default(),
                );
            }
            t.row(row);
        }
        section(
            &format!("Fig {} — {} over workload execution", &id[3..], label),
            "Paper: CHOPPER's utilization is equivalent or better than vanilla \
             Spark's, and its runs finish sooner (series end earlier). Shape \
             criterion: comparable peaks, earlier completion for CHOPPER.",
            t.render(),
        )
    }

    // ---- Multi-tenant job server -----------------------------------------
    fn jobserver_report(&mut self) -> &bench::jobserver::JobserverReport {
        self.jobserver.get_or_insert_with(|| {
            eprintln!(
                "[repro] serving the multi-tenant contention sweep \
                 (1/4/16 tenants, fair + fifo + serial baseline)..."
            );
            bench::jobserver::measure_jobserver()
        })
    }

    fn jobserver_bench(&mut self) -> String {
        let report = self.jobserver_report().clone();
        std::fs::write("results/BENCH_jobserver.json", report.to_json())
            .expect("write results/BENCH_jobserver.json");
        let mut t = Table::new(&[
            "tenants", "policy", "jobs", "p50", "p99", "p99_int", "jobs/s", "makespan",
        ]);
        for r in &report.rows {
            t.row(vec![
                r.tenants.to_string(),
                r.policy.clone(),
                r.jobs.to_string(),
                fmt_time(r.p50_latency),
                fmt_time(r.p99_latency),
                fmt_time(r.p99_interactive),
                format!("{:.3}", r.throughput),
                fmt_time(r.makespan),
            ]);
        }
        let body = format!(
            "{}\nserial baseline (16 tenants, 1 slot): {:.3} jobs/s — concurrent \
             fair server is {:.2}x faster.\n",
            t.render(),
            report.serial_throughput,
            report.speedup_16,
        );
        section(
            "Job server — multi-tenant contention sweep (BENCH_jobserver.json)",
            "Virtual-clock latencies and throughput of the long-lived job \
             server under the deterministic loadgen trace (14 jobs/tenant, \
             seed 5, 8 slots). Figures are bit-deterministic: the committed \
             JSON regenerates verbatim under the doc-sync check. Shape \
             criterion (asserted on this trace by \
             crates/jobserver/tests/fairness.rs): the concurrent 16-tenant \
             server is at least 2x the serial one, and fair beats FIFO on \
             interactive p99.",
            body,
        )
    }

    fn fig_tenants(&mut self) -> String {
        let report = self.jobserver_report();
        let mut t = Table::new(&[
            "tenants",
            "fair p99_int",
            "fifo p99_int",
            "fair p50",
            "fifo p50",
            "fair jobs/s",
            "fifo jobs/s",
        ]);
        for &n in &bench::jobserver::TENANT_COUNTS {
            let fair = report.row(n, "fair").expect("fair row");
            let fifo = report.row(n, "fifo").expect("fifo row");
            t.row(vec![
                n.to_string(),
                fmt_time(fair.p99_interactive),
                fmt_time(fifo.p99_interactive),
                fmt_time(fair.p50_latency),
                fmt_time(fifo.p50_latency),
                format!("{:.3}", fair.throughput),
                format!("{:.3}", fifo.throughput),
            ]);
        }
        section(
            "Fig tenants — latency and throughput vs tenant count, fair vs FIFO",
            "Start-time fair queueing shields interactive tenants from the \
             weight-1 batch tenant as contention grows: at 16 tenants the \
             fair server's interactive p99 (and overall p50) beats FIFO's, \
             at identical throughput, while the batch tenant absorbs the \
             deferred work. Shape criterion: fair p99_int < fifo p99_int \
             at 16 tenants; the gap widens with tenant count; single-tenant \
             rows coincide (no contention, nothing to arbitrate).",
            t.render(),
        )
    }
}

// ---- Table I ------------------------------------------------------------
fn table1() -> String {
    let workloads: Vec<(&str, Box<dyn Workload>, f64)> = vec![
        ("KMeans", Box::new(kmeans_paper()), 21.8),
        ("PCA", Box::new(pca_paper()), 27.6),
        ("SQL", Box::new(sql_paper()), 34.5),
    ];
    let kmeans_bytes = workloads[0].1.full_input_bytes() as f64;
    let mut t = Table::new(&[
        "workload",
        "input (MB, scaled)",
        "ratio vs KMeans",
        "paper (GB)",
    ]);
    for (name, w, paper_gb) in &workloads {
        let bytes = w.full_input_bytes() as f64;
        t.row(vec![
            (*name).into(),
            format!("{:.1}", bytes / 1e6),
            format!("{:.2}", bytes / kmeans_bytes),
            format!("{paper_gb}"),
        ]);
    }
    section(
        "Table I — Workloads and input data sizes",
        "The paper's inputs (21.8/27.6/34.5 GB) are scaled down ~300x for a \
         single-machine reproduction; the inter-workload ratios are preserved \
         (paper ratios: 1.00/1.27/1.58).",
        t.render(),
    )
}

// ---- Section II-B motivation sweep ---------------------------------------
struct MotivationSweep {
    /// `(P, per-stage metrics, total)` per sweep point.
    runs: Vec<(usize, Vec<StageMetrics>, f64)>,
}

impl MotivationSweep {
    fn run() -> Self {
        let w = kmeans_motivation();
        let ps = [100, 200, 300, 400, 500, 2000];
        let runs = ps
            .iter()
            .map(|&p| {
                eprintln!("[repro] motivation sweep P={p}...");
                let ctx: Context = w.run(&paper_engine(p, false), &WorkloadConf::new(), 1.0);
                let st = stages(&ctx);
                let total = ctx.run_span();
                (p, st, total)
            })
            .collect();
        MotivationSweep { runs }
    }

    fn sweep_points(&self) -> impl Iterator<Item = &(usize, Vec<StageMetrics>, f64)> {
        self.runs.iter().filter(|(p, _, _)| *p != 2000)
    }

    fn fig2(&self) -> String {
        let header: Vec<String> = std::iter::once("stage".to_string())
            .chain(self.sweep_points().map(|(p, _, _)| format!("P={p}")))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = Table::new(&header_refs);
        let num_stages = self.runs[0].1.len();
        for i in 1..num_stages {
            let mut row = vec![i.to_string()];
            for (_, st, _) in self.sweep_points() {
                row.push(format!("{:.1}", st[i].duration()));
            }
            t.row(row);
        }
        let mut totals = vec!["total".to_string()];
        for (_, _, total) in self.sweep_points() {
            totals.push(format!("{total:.1}"));
        }
        t.row(totals);
        section(
            "Fig 2 — KMeans execution time per stage under different partition counts",
            "Paper: per-stage times vary with P and each stage has its own optimum. \
             Shape criterion: stage times change with P; no single P is best for \
             every stage (times in seconds; stage 0 in Fig 3).",
            t.render(),
        )
    }

    fn fig3(&self) -> String {
        let mut t = Table::new(&["partitions", "stage-0 time"]);
        for (p, st, _) in self.sweep_points() {
            t.row(vec![p.to_string(), fmt_time(st[0].duration())]);
        }
        section(
            "Fig 3 — KMeans stage-0 execution time vs partition count",
            "Paper: worst at P=100 (~225 s), improving toward P=500. Shape \
             criterion: monotone decrease from 100 to 500 with P=100 the worst.",
            t.render(),
        )
    }

    fn fig4(&self) -> String {
        // Shuffle stages are the iteration stages; collect every stage with
        // nonzero shuffle volume, keyed by stage id.
        let mut by_stage: BTreeMap<usize, Vec<(usize, u64)>> = BTreeMap::new();
        for (p, st, _) in self.sweep_points() {
            for s in st {
                if s.shuffle_data() > 0 {
                    by_stage
                        .entry(s.stage_id)
                        .or_default()
                        .push((*p, s.shuffle_data()));
                }
            }
        }
        let header: Vec<String> = std::iter::once("stage".to_string())
            .chain(self.sweep_points().map(|(p, _, _)| format!("P={p} (KB)")))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = Table::new(&header_refs);
        for (stage, vals) in &by_stage {
            let mut row = vec![stage.to_string()];
            for (p, _, _) in self.sweep_points() {
                let v = vals
                    .iter()
                    .find(|(vp, _)| vp == p)
                    .map(|(_, b)| *b)
                    .unwrap_or(0);
                row.push(format!("{:.1}", v as f64 / 1024.0));
            }
            t.row(row);
        }
        section(
            "Fig 4 — KMeans shuffle data per stage under different partition counts",
            "Paper: shuffle volume grows with the partition count at every shuffle \
             stage (434.83 KB at P=200 vs 1081.6 KB at P=500 for stage 17). Shape \
             criterion: monotone growth in P for every shuffle stage.",
            t.render(),
        )
    }

    fn sec2b(&self) -> String {
        let best = self
            .sweep_points()
            .map(|(p, _, total)| (*p, *total))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty sweep");
        let p2000 = self
            .runs
            .iter()
            .find(|(p, _, _)| *p == 2000)
            .expect("2000-partition run present");
        let last_shuffle = |st: &[StageMetrics]| {
            st.iter()
                .rev()
                .find(|s| s.shuffle_data() > 0)
                .map(|s| s.shuffle_data())
                .unwrap_or(0)
        };
        let best_st = &self
            .sweep_points()
            .find(|(p, _, _)| *p == best.0)
            .expect("present")
            .1;
        let mut t = Table::new(&["config", "total time", "last shuffle stage KB"]);
        t.row(vec![
            format!("best sweep point (P={})", best.0),
            fmt_time(best.1),
            fmt_kb(last_shuffle(best_st)),
        ]);
        t.row(vec![
            "P=2000".into(),
            fmt_time(p2000.2),
            fmt_kb(last_shuffle(&p2000.1)),
        ]);
        let impr = 100.0 * (p2000.2 - best.1) / p2000.2;
        let shuffle_red =
            100.0 * (1.0 - last_shuffle(best_st) as f64 / last_shuffle(&p2000.1).max(1) as f64);
        let body = format!(
            "{}\nvs P=2000: {impr:.1}% faster, {shuffle_red:.1}% less shuffle data \
             (paper: 46.1% time / 94.9% shuffle vs 2000 partitions).\n",
            t.render()
        );
        section(
            "Section II-B — the 2000-partition blow-up",
            "Paper: 2000 partitions take 4.53 min and 4300.8 KB of stage-17 shuffle; \
             a well-chosen count is ~46% faster with ~95% less shuffle. Shape \
             criterion: P=2000 is substantially slower and shuffles far more.",
            body,
        )
    }
}

// ---- Fig mem: memory-governed storage under a bounded executor -----------

/// Per-executor memory bound for the constrained rows (bytes). Sized so
/// the naive configuration's large tasks reserve enough execution memory
/// to squeeze the cached input out of storage, while the higher partition
/// counts the memory-aware optimizer selects leave it resident.
const FIG_MEM_BUDGET: u64 = 1150 * 1024;

/// A memory-oblivious default parallelism sized for roomy executors:
/// a handful of fat tasks, each holding a large working set.
const FIG_MEM_NAIVE_P: usize = 30;

/// Largest partition count the plan actually installed.
fn max_tuned_p(plan: &chopper::TuningPlan) -> usize {
    use chopper::DecisionAction;
    plan.decisions
        .iter()
        .filter_map(|d| match &d.action {
            DecisionAction::Retune(s)
            | DecisionAction::RetuneGrouped(s)
            | DecisionAction::InsertRepartition(s) => Some(s.partitions),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

fn fig_mem() -> String {
    let w = kmeans_reduced();

    eprintln!("[repro] fig_mem: tuning reduced kmeans with unbounded executors...");
    let free = paper_autotuner_mem(FIG_MEM_NAIVE_P, None).compare(&w);
    let p_free = max_tuned_p(&free.plan);

    eprintln!("[repro] fig_mem: naive run + memory-aware tune under the bound...");
    let aware = paper_autotuner_mem(FIG_MEM_NAIVE_P, Some(FIG_MEM_BUDGET)).compare(&w);
    let p_aware = max_tuned_p(&aware.plan);

    let rows: Vec<(&str, usize, &Context)> = vec![
        ("unbounded, naive P", FIG_MEM_NAIVE_P, &free.vanilla),
        ("unbounded, tuned", p_free, &free.chopper),
        ("bounded, naive P", FIG_MEM_NAIVE_P, &aware.vanilla),
        ("bounded, memory-aware", p_aware, &aware.chopper),
    ];
    let mut t = Table::new(&[
        "config",
        "max P",
        "evictions",
        "spills",
        "spill KB",
        "rereads",
        "reread KB",
        "time",
    ]);
    for (name, p, ctx) in rows {
        let mc = ctx.mem_counters();
        t.row(vec![
            name.into(),
            p.to_string(),
            mc.evictions.to_string(),
            mc.spills.to_string(),
            fmt_kb(mc.spill_bytes),
            mc.rereads.to_string(),
            fmt_kb(mc.reread_bytes),
            fmt_time(ctx.run_span()),
        ]);
    }
    section(
        &format!(
            "Fig mem — bounded executor memory ({} KB) vs partition count",
            FIG_MEM_BUDGET / 1024
        ),
        "A memory-oblivious configuration run on small-memory executors \
         spills: its fat tasks reserve execution memory that squeezes the \
         cached input out of storage, and every later iteration rereads \
         it from disk (the Fig-14 transaction counters account the \
         traffic). The memory-aware optimizer's feasibility bound selects \
         a higher partition count than the unconstrained tune, whose \
         smaller working sets leave the cache resident. Shape criterion: \
         memory-aware P > unbounded tuned P; the bounded naive run \
         spills and rereads; the bounded memory-aware run has zero \
         spills and matches the unbounded tuned profile.",
        t.render(),
    )
}

// ---- Fig faults: deterministic fault injection + lineage recovery ---------

/// Placement- and timing-independent view of a run: stage structure plus
/// every byte/record table. Faults must never move any of it.
fn byte_table(ctx: &Context) -> String {
    let mut s = String::new();
    for j in ctx.jobs() {
        let _ = writeln!(s, "job {} ({} stages)", j.name, j.stages.len());
        for m in &j.stages {
            let _ = writeln!(
                s,
                "  {} tasks={} in={}r/{}B out={}r/{}B shuffle_r={}B shuffle_w={}B",
                m.name,
                m.num_tasks,
                m.input_records,
                m.input_bytes,
                m.output_records,
                m.output_bytes,
                m.shuffle_read_bytes,
                m.shuffle_write_bytes
            );
        }
    }
    s
}

fn fig_faults() -> String {
    let plan = FaultPlan::from_text(include_str!("../../../../plans/fig_faults.plan"))
        .expect("shipped fig_faults plan parses");

    // Wordcount + SQL join under the canned three-fault plan, checked
    // against their fault-free twins.
    let workloads: Vec<(&str, Box<dyn Workload>)> = vec![
        ("wordcount", Box::new(wordcount_paper())),
        ("SQL join", Box::new(sql_paper())),
    ];
    let mut t = Table::new(&[
        "workload",
        "jobs ok",
        "clean time",
        "faulted time",
        "retries",
        "recomputed maps",
        "re-homed",
        "stragglers",
        "tables equal",
    ]);
    for (name, w) in &workloads {
        eprintln!("[repro] fig_faults: {name} fault-free + faulted runs...");
        let clean = w.run_full(&paper_engine(300, false), &WorkloadConf::new());
        let mut opts = paper_engine(300, false);
        opts.faults = Some(plan.clone());
        let faulted = w.run_full(&opts, &WorkloadConf::new());
        let fc = faulted.fault_counters();
        let equal = byte_table(&clean) == byte_table(&faulted);
        t.row(vec![
            (*name).into(),
            format!("{}/{}", faulted.jobs().len(), clean.jobs().len()),
            fmt_time(clean.run_span()),
            fmt_time(faulted.run_span()),
            fc.retried_tasks.to_string(),
            fc.recomputed_map_tasks.to_string(),
            fc.replica_rehomed_partitions.to_string(),
            fc.stragglers_applied.to_string(),
            if equal { "yes" } else { "NO" }.into(),
        ]);
    }

    // After the loss the cluster is one node smaller and tasks keep
    // failing at the plan's rate: CHOPPER re-tunes and chooses a new P.
    eprintln!("[repro] fig_faults: re-tuning wordcount on the degraded cluster...");
    let w = wordcount_paper();
    let healthy = paper_autotuner_mem(300, None).compare(&w);
    let degraded = paper_autotuner_degraded(300, 1, plan.task_fail_prob).compare(&w);
    let mut o = Table::new(&["cluster", "max tuned P", "tuned time"]);
    o.row(vec![
        "healthy (5 nodes)".into(),
        max_tuned_p(&healthy.plan).to_string(),
        fmt_time(healthy.chopper_time()),
    ]);
    o.row(vec![
        format!(
            "degraded (node B lost, {:.0}% task failures)",
            100.0 * plan.task_fail_prob
        ),
        max_tuned_p(&degraded.plan).to_string(),
        fmt_time(degraded.chopper_time()),
    ]);

    section(
        "Fig faults — deterministic fault injection and lineage recovery",
        "Wordcount and the SQL join run under plans/fig_faults.plan: 5% \
         seeded task failures, node B lost at t=60 (mid scan stage, while \
         its map outputs are live), and a 2x straggler on node D. Shape \
         criterion: every job completes, retries and lineage recomputation \
         are non-zero, and the faulted byte tables are identical to the \
         fault-free ones — recovery costs time, never answers. After the \
         loss, re-tuning on the shrunk cluster with the failure rate \
         charged into the cost model re-chooses the partition count.",
        format!("{}\n{}", t.render(), o.render()),
    )
}

// ---- Fig scale: topology sweep 6 → 96 → 1000 nodes ------------------------

fn fig_scale() -> String {
    let sweep = bench::scale::run_sweep();
    let flips = sweep.flips().len();
    let body = format!(
        "{}\nStages re-tuned differently on the oversubscribed fabric ({flips}):\n{}",
        sweep.cells_table(),
        sweep.flips_table()
    );
    section(
        "Fig scale — tuned P and partitioner vs cluster size and fabric",
        "The same weak-scaled aggregation workload auto-tuned at 6, 96 and \
         1000 hosts, once on a flat fabric and once on a 4:1-oversubscribed \
         rack/spine fabric. Every cell runs on the netsim flow engine \
         (per-link max-min sharing, rack-aware reduce placement); on the \
         rack fabric the ToR uplinks are contended too and the optimizer \
         judges shuffle significance against the degraded cross-rack \
         bandwidth, so contention the flat fabric does not have reshapes \
         its choices. Shape criterion: at least one stage's tuned \
         partition count or partitioner differs between the fabrics, and \
         the whole table regenerates bit-identically (doc-sync gated).",
        body,
    )
}
