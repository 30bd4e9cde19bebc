//! Command implementations for `chopper-cli`.

use crate::args::Args;
use chopper::{Autotuner, DecisionAction, TestRunPlan, Workload, WorkloadDb};
use engine::{EngineOptions, PartitionerKind, WorkloadConf};
use serde::Serialize;
use simcluster::{paper_cluster, uniform_cluster, ClusterSpec};
use workloads::{
    KMeans, KMeansConfig, LogReg, LogRegConfig, Pca, PcaConfig, SkewAgg, SkewAggConfig, Sql,
    SqlConfig,
};

/// Top-level usage text.
pub const USAGE: &str = "\
chopper-cli — CHOPPER auto-partitioning (CLUSTER 2016 reproduction)

commands:
  run      --workload kmeans|pca|sql|logreg|skewagg [--scale F]
           [--partitions N] [--copartition] [--gantt] [--conf FILE]
           [--adaptive on|off] [--cluster paper|uniform:N,C,GHz]
           [--topology flat|rack:RxH[:oversub]]
           [--executor-mem SIZE] [--fault-plan FILE] [--fault-seed N]
  tune     --workload W --db FILE [--out-conf FILE]
           [--scales 0.1,0.3,0.6] [--test-partitions 60,150,300,600,1200]
           [--test-parallelism N]
  plan     --workload W --db FILE [--out-conf FILE] [--partitions N]
  compare  --workload W [--partitions N] [--executor-mem SIZE]
  trace    <workload> | --workload W [--scale F] [--partitions N]
           [--out FILE] [--summary-out FILE] [--clock all|virtual|wall]
           [--conf FILE] [--adaptive on|off] [--cluster paper|uniform:N,C,GHz]
           [--executor-mem SIZE] [--fault-plan FILE] [--fault-seed N]
  inspect  --db FILE
  conf     --file FILE
  serve    --trace FILE [--policy fair|fifo] [--slots N] [--queue-cap N]
           [--mem-shared SIZE] [--mem-tenant SIZE] [--workers N]
           [--partitions N] [--serial]
           [--cluster paper|uniform:N,C,GHz] [--results-out FILE]
           [--tables-out FILE] [--trace-out FILE]
  loadgen  --out FILE [--tenants N] [--jobs N] [--seed N]
  help

--topology shapes the simulated network, which carries every shuffle
fetch as a flow under max-min fair sharing: `flat` (default) is one rack
on a non-blocking fabric, so only the receiver NICs are contended;
`rack:<racks>x<hosts>[:oversub]` groups hosts into racks behind ToR
uplinks carrying hosts×NIC/oversub each way. The rack grid must have
room for every cluster node; malformed specs are rejected at parse time.

--adaptive (default on) splits byte-hot reduce partitions of hash and
range shuffles into sub-tasks in-job, from the shuffle's own byte counts.
Splitting is key-preserving, so sorted outputs are bit-identical to the
unsplit plan; only simulated timings move. `--adaptive off` restores
static plans bit-for-bit.

--executor-mem bounds each simulated executor's unified memory (cache +
task working sets); accepts k/m/g suffixes, e.g. 512m. Omitting it keeps
the cache unbounded (no eviction or spill). run and trace then print a
`memory:` line with what the memory manager did.

--fault-plan installs a deterministic, seeded fault plan (task failures,
node losses at virtual times, slow nodes, shuffle-chunk corruption) and
enables recovery: retries, lineage recomputation, replica re-homing, and
blacklisting. Results are bit-identical to the fault-free run; only
simulated timings change. --fault-seed overrides the plan file's seed.
Composes with --executor-mem: a lost node's cached partitions re-home
through the memory manager, so a survivor pushed over its budget spills.

serve runs a multi-tenant job trace (see loadgen, or write one by hand:
`tenant NAME weight W [mem SIZE]` + `job TENANT at SECS KIND scale F
seed N` lines) through the long-lived job server. --fault-plan and
--executor-mem are rejected for serve: faults attach per tenant inside
the server, and tenant memory is governed by the admission ledger
(--mem-shared / --mem-tenant) instead of executor caches.
";

type CmdResult = Result<(), String>;

fn workload(args: &Args) -> Result<Box<dyn Workload>, String> {
    match args.require("workload").map_err(|e| e.to_string())? {
        "kmeans" => Ok(Box::new(KMeans::new(KMeansConfig::paper()))),
        "pca" => Ok(Box::new(Pca::new(PcaConfig::paper()))),
        "sql" => Ok(Box::new(Sql::new(SqlConfig::paper()))),
        "logreg" => Ok(Box::new(LogReg::new(LogRegConfig::paper()))),
        "skewagg" => Ok(Box::new(SkewAgg::new(SkewAggConfig::paper()))),
        other => Err(format!(
            "unknown workload '{other}' (kmeans|pca|sql|logreg|skewagg)"
        )),
    }
}

fn cluster(args: &Args) -> Result<ClusterSpec, String> {
    let mut spec = match args.get("cluster").unwrap_or("paper") {
        "paper" => paper_cluster(),
        spec if spec.starts_with("uniform:") => {
            let parts: Vec<&str> = spec["uniform:".len()..].split(',').collect();
            if parts.len() != 3 {
                return Err("expected --cluster uniform:<nodes>,<cores>,<ghz>".into());
            }
            let nodes = parts[0].parse().map_err(|_| "bad node count")?;
            if nodes == 0 {
                return Err("--cluster uniform: needs at least one node".into());
            }
            let cores = parts[1].parse().map_err(|_| "bad core count")?;
            let ghz = parts[2].parse().map_err(|_| "bad GHz value")?;
            uniform_cluster(nodes, cores, ghz)
        }
        other => return Err(format!("unknown cluster spec '{other}'")),
    };
    if let Some(t) = args.get("topology") {
        // Whether the grid covers the cluster is `EngineOptions::validate`'s
        // check, shared with specs that never pass through here.
        spec.topology = t
            .parse()
            .map_err(|e: simcluster::TopologyParseError| e.to_string())?;
    }
    Ok(spec)
}

/// Loads `--fault-plan` (with an optional `--fault-seed` override).
fn fault_plan(args: &Args) -> Result<Option<engine::FaultPlan>, String> {
    let Some(path) = args.get("fault-plan") else {
        if args.get("fault-seed").is_some() {
            return Err("--fault-seed requires --fault-plan".into());
        }
        return Ok(None);
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut plan = engine::FaultPlan::from_text(&text).map_err(|e| format!("{path}: {e}"))?;
    if let Some(seed) = args.get("fault-seed") {
        plan.seed = seed
            .parse()
            .map_err(|_| format!("bad --fault-seed '{seed}' (expected an integer)"))?;
    }
    Ok(Some(plan))
}

fn engine_opts(args: &Args) -> Result<EngineOptions, String> {
    let executor_mem = match args.get("executor-mem") {
        None => None,
        Some(s) => Some(jobserver::parse_mem(s)?),
    };
    let adaptive = match args.get("adaptive") {
        None | Some("on") => true,
        Some("off") => false,
        Some(other) => return Err(format!("bad --adaptive '{other}' (expected on|off)")),
    };
    let opts = EngineOptions {
        cluster: cluster(args)?,
        default_parallelism: args.num("partitions", 300).map_err(|e| e.to_string())?,
        copartition_scheduling: args.has("copartition"),
        executor_mem,
        adaptive,
        faults: fault_plan(args)?,
        ..EngineOptions::default()
    };
    // Surface invalid values (e.g. a fault plan naming a node outside
    // the cluster) as a parse-time error instead of an engine panic.
    opts.validate()?;
    Ok(opts)
}

fn load_conf(args: &Args) -> Result<WorkloadConf, String> {
    match args.get("conf") {
        None => Ok(WorkloadConf::new()),
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            WorkloadConf::from_text(&text)
        }
    }
}

fn tuner(args: &Args) -> Result<Autotuner, String> {
    let opts = engine_opts(args)?;
    let scales = args
        .num_list("scales", vec![0.1, 0.3, 0.6])
        .map_err(|e| e.to_string())?;
    if let Some(s) = scales.iter().find(|&&s| !(s > 0.0 && s <= 1.0)) {
        return Err(format!("--scales entries must be in (0, 1], got {s}"));
    }
    let partitions = args
        .num_list("test-partitions", vec![60, 150, 300, 600, 1200])
        .map_err(|e| e.to_string())?;
    if partitions.contains(&0) {
        return Err("--test-partitions entries must be positive, got 0".into());
    }
    let mut t = Autotuner::new(opts);
    t.test_plan = TestRunPlan {
        scales,
        partitions,
        kinds: vec![PartitionerKind::Hash, PartitionerKind::Range],
        probe_user_fixed: true,
        parallelism: args.num("test-parallelism", 1).map_err(|e| e.to_string())?,
    };
    Ok(t)
}

/// `run`: execute a workload once and print its stage table (and, with
/// `--gantt`, a per-stage schedule timeline).
pub fn run(args: &Args) -> CmdResult {
    let w = workload(args)?;
    let opts = engine_opts(args)?;
    let conf = load_conf(args)?;
    let scale = args.num("scale", 1.0).map_err(|e| e.to_string())?;
    if !(scale > 0.0 && scale <= 1.0) {
        return Err("--scale must be in (0, 1]".into());
    }
    let ctx = w.run(&opts, &conf, scale);
    print!("{}", ctx.report());
    if args.has("gantt") {
        for s in ctx.all_stages() {
            let timing = simcluster::StageTiming {
                start: s.start,
                end: s.end,
                tasks: s.placements.clone(),
            };
            println!(
                "
stage {} [{}]",
                s.stage_id, s.name
            );
            print!("{}", simcluster::render_gantt(&opts.cluster, &timing, 80));
        }
    }
    Ok(())
}

/// `trace`: execute a workload with the event sink enabled, write a
/// Perfetto-loadable Chrome `trace_event` JSON file, and print the stage
/// table `run` prints plus the host pool's counters.
pub fn trace(args: &Args) -> CmdResult {
    let w = workload(args)?;
    let mut opts = engine_opts(args)?;
    let sink = engine::TraceSink::enabled();
    opts.trace = sink.clone();
    let conf = load_conf(args)?;
    let scale = args.num("scale", 1.0).map_err(|e| e.to_string())?;
    if !(scale > 0.0 && scale <= 1.0) {
        return Err("--scale must be in (0, 1]".into());
    }
    let filter = match args.get("clock").unwrap_or("all") {
        "all" => engine::ClockFilter::All,
        "virtual" => engine::ClockFilter::VirtualOnly,
        "wall" => engine::ClockFilter::WallOnly,
        other => return Err(format!("unknown --clock '{other}' (all|virtual|wall)")),
    };
    let ctx = w.run(&opts, &conf, scale);
    let json = sink.chrome_json_filtered(filter);
    let default_out = format!("trace_{}.json", w.name());
    let out = args.get("out").unwrap_or(&default_out);
    std::fs::write(out, &json).map_err(|e| format!("write {out}: {e}"))?;
    print!("{}", ctx.report());
    let pool = ctx.pool().stats();
    println!(
        "pool (host): {} jobs, {} items, {} stolen, {} idle epochs",
        pool.jobs, pool.items, pool.stolen, pool.idle_epochs
    );
    if let Some(path) = args.get("summary-out") {
        let jobs = ctx.jobs().to_json().render(false);
        std::fs::write(path, jobs).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote stage metrics JSON to {path}");
    }
    println!(
        "wrote {} trace events to {out} (open at https://ui.perfetto.dev)",
        sink.events().len()
    );
    Ok(())
}

/// `tune`: run the lightweight test grid and store observations.
pub fn tune(args: &Args) -> CmdResult {
    let w = workload(args)?;
    let db_path = args.require("db").map_err(|e| e.to_string())?;
    let mut db = if std::path::Path::new(db_path).exists() {
        WorkloadDb::load(std::path::Path::new(db_path))?
    } else {
        WorkloadDb::new()
    };
    let t = tuner(args)?;
    let runs = t.train(w.as_ref(), &mut db);
    db.save(std::path::Path::new(db_path))
        .map_err(|e| e.to_string())?;
    println!(
        "recorded {} test runs, {runs} executed, into {db_path}",
        t.test_plan.num_runs()
    );
    if let Some(path) = args.get("out-conf") {
        let plan = t.plan(w.as_ref(), &db);
        std::fs::write(path, plan.conf.to_text()).map_err(|e| e.to_string())?;
        println!("wrote configuration to {path}");
    }
    Ok(())
}

/// `plan`: compute the globally optimized plan from a trained database.
pub fn plan(args: &Args) -> CmdResult {
    let w = workload(args)?;
    let db_path = args.require("db").map_err(|e| e.to_string())?;
    let db = WorkloadDb::load(std::path::Path::new(db_path))?;
    let t = tuner(args)?;
    let plan = t.plan(w.as_ref(), &db);
    if plan.decisions.is_empty() {
        return Err(format!(
            "no observations for workload '{}' in {db_path}",
            w.name()
        ));
    }
    println!("{:>18} {:>16}  decision", "signature", "stage");
    for d in &plan.decisions {
        let what = match &d.action {
            DecisionAction::Retune(s) => format!("retune -> {} {}", s.kind, s.partitions),
            DecisionAction::RetuneGrouped(s) => {
                format!("retune (join group) -> {} {}", s.kind, s.partitions)
            }
            DecisionAction::InsertRepartition(s) => {
                format!("insert repartition -> {} {}", s.kind, s.partitions)
            }
            DecisionAction::KeepUserFixed => "keep (user-fixed)".into(),
            DecisionAction::FollowsProducer(sig) => {
                format!("follows producer {sig:016x} (partition dependency)")
            }
            DecisionAction::KeepDefault => "keep (no model)".into(),
        };
        println!("{:>18x} {:>16}  {what}", d.signature, d.name);
    }
    if let Some(path) = args.get("out-conf") {
        std::fs::write(path, plan.conf.to_text()).map_err(|e| e.to_string())?;
        println!("wrote configuration to {path}");
    } else {
        println!("\n{}", plan.conf.to_text());
    }
    Ok(())
}

/// `compare`: the full vanilla-vs-CHOPPER protocol.
pub fn compare(args: &Args) -> CmdResult {
    let w = workload(args)?;
    let t = tuner(args)?;
    println!(
        "running vanilla, {} test runs, and the tuned configuration...",
        t.test_plan.num_runs()
    );
    let cmp = t.compare(w.as_ref());
    println!("\n== vanilla ==");
    print!("{}", cmp.vanilla.report());
    println!("\n== CHOPPER ==");
    print!("{}", cmp.chopper.report());
    println!(
        "\n{}: {:.1}s -> {:.1}s ({:+.1}%)",
        cmp.workload,
        cmp.vanilla_time(),
        cmp.chopper_time(),
        cmp.improvement_pct()
    );
    Ok(())
}

/// `inspect`: summarize a workload database.
pub fn inspect(args: &Args) -> CmdResult {
    let db_path = args.require("db").map_err(|e| e.to_string())?;
    let db = WorkloadDb::load(std::path::Path::new(db_path))?;
    let names = db.workload_names();
    if names.is_empty() {
        println!("{db_path}: empty database");
        return Ok(());
    }
    for name in names {
        let rec = db.workload(name).expect("listed");
        println!(
            "workload '{name}': {} observations over {} runs",
            rec.num_observations(),
            rec.runs.len()
        );
        if let Some(reference) = rec.reference_run() {
            println!(
                "  reference run: {} input bytes, {} stages, {:.1}s",
                reference.input_bytes,
                reference.dag.len(),
                reference.duration
            );
            for stage in &reference.dag {
                let cv = chopper::cross_validation_error(
                    rec.observations(stage.signature, stage.observed_kind),
                    4,
                )
                .map(|e| format!(" cv-err={:.2}", e))
                .unwrap_or_default();
                println!(
                    "    {:016x} {:<18} P={:<5} {}{}{}{cv}",
                    stage.signature,
                    stage.name,
                    stage.observed_partitions,
                    stage.observed_kind,
                    if stage.is_join { " join" } else { "" },
                    if stage.user_fixed { " user-fixed" } else { "" },
                );
            }
        }
    }
    Ok(())
}

/// `conf`: validate and pretty-print a configuration file.
pub fn conf(args: &Args) -> CmdResult {
    let path = args.require("file").map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let parsed = WorkloadConf::from_text(&text)?;
    println!(
        "{path}: valid ({} stage entries, {} repartition insertions{})",
        parsed.stages.len(),
        parsed.insert_repartition.len(),
        parsed
            .default_parallelism
            .map(|d| format!(", default parallelism {d}"))
            .unwrap_or_default()
    );
    print!("{}", parsed.to_text());
    Ok(())
}

/// Builds the job server's engine options from `serve` flags.
///
/// `serve` exposes a narrower engine surface than `run`, and the two
/// flags it drops are rejected at parse time rather than silently
/// ignored: a global `--fault-plan` would perturb
/// every tenant's virtual clock (the server attaches plans per tenant),
/// and `--executor-mem` governs cache eviction, which the job server
/// replaces with the admission ledger's per-tenant budgets.
fn serve_engine_opts(args: &Args) -> Result<EngineOptions, String> {
    if args.get("fault-plan").is_some() || args.get("fault-seed").is_some() {
        return Err(
            "--fault-plan cannot be combined with serve: the job server installs \
             fault plans per tenant, so a global plan would perturb every \
             tenant's virtual clock — use `run --fault-plan` for single-job \
             fault studies, or the per-tenant plans in the fault-equivalence \
             tests as a template"
                .into(),
        );
    }
    if args.get("executor-mem").is_some() {
        return Err(
            "--executor-mem cannot be combined with serve: tenant memory is \
             governed by the admission ledger — size it with --mem-shared and \
             --mem-tenant instead"
                .into(),
        );
    }
    let defaults = jobserver::server_engine_defaults();
    let opts = EngineOptions {
        cluster: cluster(args)?,
        default_parallelism: args
            .num("partitions", defaults.default_parallelism)
            .map_err(|e| e.to_string())?,
        workers: args
            .num("workers", defaults.workers)
            .map_err(|e| e.to_string())?,
        ..defaults
    };
    opts.validate()?;
    Ok(opts)
}

/// `serve`: run a multi-tenant job trace through the job server and
/// print per-tenant latency/throughput figures.
pub fn serve(args: &Args) -> CmdResult {
    let path = args.require("trace").map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let trace = jobserver::JobTrace::from_text(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut cfg = jobserver::ServerConfig {
        policy: jobserver::Policy::parse(args.get("policy").unwrap_or("fair"))?,
        engine: serve_engine_opts(args)?,
        ..jobserver::ServerConfig::default()
    };
    cfg.slots = args.num("slots", cfg.slots).map_err(|e| e.to_string())?;
    cfg.queue_cap = args
        .num("queue-cap", cfg.queue_cap)
        .map_err(|e| e.to_string())?;
    if let Some(s) = args.get("mem-shared") {
        cfg.mem_shared = jobserver::parse_mem(s)?;
    }
    if let Some(s) = args.get("mem-tenant") {
        cfg.mem_guarantee = jobserver::parse_mem(s)?;
    }
    if args.has("serial") {
        cfg.interleave = jobserver::Interleave::Serial;
    }
    if args.get("trace-out").is_some() {
        // One sink catches both server-level events (queue depth, job
        // spans) and the engines' own stage/task spans.
        let sink = engine::TraceSink::enabled();
        cfg.trace = sink.clone();
        cfg.engine.trace = sink;
    }
    let report = jobserver::serve(&trace, &cfg)?;
    print!("{}", report.render());
    if let Some(p) = args.get("results-out") {
        std::fs::write(p, report.to_json()).map_err(|e| format!("write {p}: {e}"))?;
        println!("wrote report JSON to {p}");
    }
    if let Some(p) = args.get("tables-out") {
        std::fs::write(p, report.tables_text()).map_err(|e| format!("write {p}: {e}"))?;
        println!("wrote per-job result tables to {p}");
    }
    if let Some(p) = args.get("trace-out") {
        let json = cfg
            .trace
            .chrome_json_filtered(engine::ClockFilter::VirtualOnly);
        std::fs::write(p, &json).map_err(|e| format!("write {p}: {e}"))?;
        println!(
            "wrote {} trace events to {p} (open at https://ui.perfetto.dev)",
            cfg.trace.events().len()
        );
    }
    Ok(())
}

/// `loadgen`: generate a deterministic multi-tenant job trace for
/// `serve` (tenant 0 is a weight-1 batch tenant with periodic heavy
/// jobs; the rest are weight-2 interactive tenants).
pub fn loadgen(args: &Args) -> CmdResult {
    let tenants: usize = args.num("tenants", 4).map_err(|e| e.to_string())?;
    let jobs: usize = args.num("jobs", 56).map_err(|e| e.to_string())?;
    let seed: u64 = args.num("seed", 11).map_err(|e| e.to_string())?;
    if tenants == 0 || jobs == 0 {
        return Err("--tenants and --jobs must be positive".into());
    }
    let out = args.require("out").map_err(|e| e.to_string())?;
    let trace = jobserver::generate(tenants, jobs, seed);
    std::fs::write(out, trace.to_text()).map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "wrote {} jobs over {} tenants (seed {seed}) to {out}",
        trace.jobs.len(),
        trace.tenants.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().copied()).expect("valid args")
    }

    #[test]
    fn workload_selection() {
        assert_eq!(
            workload(&args(&["run", "--workload", "kmeans"]))
                .unwrap()
                .name(),
            "kmeans"
        );
        assert_eq!(
            workload(&args(&["run", "--workload", "sql"]))
                .unwrap()
                .name(),
            "sql"
        );
        assert_eq!(
            workload(&args(&["run", "--workload", "logreg"]))
                .unwrap()
                .name(),
            "logreg"
        );
        assert_eq!(
            workload(&args(&["run", "--workload", "skewagg"]))
                .unwrap()
                .name(),
            "skewagg"
        );
        assert!(workload(&args(&["run", "--workload", "zebra"])).is_err());
        assert!(workload(&args(&["run"])).is_err());
    }

    #[test]
    fn cluster_specs() {
        let paper = cluster(&args(&["run"])).unwrap();
        assert_eq!(paper.num_nodes(), 5);
        let uni = cluster(&args(&["run", "--cluster", "uniform:3,8,2.5"])).unwrap();
        assert_eq!(uni.total_cores(), 24);
        assert!(cluster(&args(&["run", "--cluster", "uniform:3,8"])).is_err());
        assert!(cluster(&args(&["run", "--cluster", "mesh"])).is_err());
    }

    #[test]
    fn topology_flag_shapes_the_cluster() {
        let flat = cluster(&args(&["run", "--cluster", "uniform:8,4,2.0"])).unwrap();
        assert_eq!(flat.topology, simcluster::Topology::Flat);
        let racked = cluster(&args(&[
            "run",
            "--cluster",
            "uniform:8,4,2.0",
            "--topology",
            "rack:4x2:4",
        ]))
        .unwrap();
        assert_eq!(
            racked.topology,
            simcluster::Topology::Rack {
                racks: 4,
                hosts: 2,
                oversub: 4.0
            }
        );
        assert_eq!(racked.rack_of(7), 3);
        // Explicit flat is accepted and identical to the default.
        let explicit = cluster(&args(&[
            "run",
            "--cluster",
            "uniform:8,4,2.0",
            "--topology",
            "flat",
        ]))
        .unwrap();
        assert_eq!(explicit, flat);
    }

    #[test]
    fn malformed_topology_specs_die_at_parse_time() {
        for bad in ["rack:8", "rack:0x4", "mesh:2x2", "rack:2x2:0.5", "Rack:2x2"] {
            let err = cluster(&args(&["run", "--topology", bad]))
                .expect_err(&format!("'{bad}' must be rejected"));
            assert!(err.contains("topology"), "'{bad}' error: {err}");
        }
    }

    #[test]
    fn undersized_topology_grid_dies_at_parse_time() {
        // A well-formed grid that is too small for the cluster is an
        // argument error for every command, not a later panic or a last
        // rack silently absorbing the overflow.
        let tokens = [
            "run",
            "--cluster",
            "uniform:8,4,2.0",
            "--topology",
            "rack:2x2",
        ];
        let Err(err) = engine_opts(&args(&tokens)) else {
            panic!("undersized grid must be rejected");
        };
        assert!(
            err.contains("room") && err.contains("rack:2x2"),
            "got: {err}"
        );
        assert!(serve_engine_opts(&args(&tokens)).is_err());
        let fits = [
            "run",
            "--cluster",
            "uniform:8,4,2.0",
            "--topology",
            "rack:2x4",
        ];
        assert!(engine_opts(&args(&fits)).is_ok());
    }

    #[test]
    fn engine_options_follow_flags() {
        let o = engine_opts(&args(&["run", "--partitions", "64", "--copartition"])).unwrap();
        assert_eq!(o.default_parallelism, 64);
        assert!(o.copartition_scheduling);
        let d = engine_opts(&args(&["run"])).unwrap();
        assert_eq!(d.default_parallelism, 300);
        assert!(!d.copartition_scheduling);
    }

    #[test]
    fn adaptive_flag_parses_on_off() {
        assert!(engine_opts(&args(&["run"])).unwrap().adaptive);
        assert!(
            engine_opts(&args(&["run", "--adaptive", "on"]))
                .unwrap()
                .adaptive
        );
        assert!(
            !engine_opts(&args(&["run", "--adaptive", "off"]))
                .unwrap()
                .adaptive
        );
        let err = match engine_opts(&args(&["run", "--adaptive", "maybe"])) {
            Err(e) => e,
            Ok(_) => panic!("bad --adaptive value must be rejected"),
        };
        assert!(err.contains("--adaptive"));
    }

    /// ROADMAP item 8's hot join (left ~90 % one key, right uniform, P=8)
    /// under the options `run --adaptive on` parses to, counted three
    /// times in one context: every count is the whole join. A between-job
    /// re-planner once turned it into a lossy range join after the first.
    #[test]
    fn adaptive_on_counts_a_repeated_hot_join_whole() {
        let flags = [
            "run",
            "--adaptive",
            "on",
            "--cluster",
            "uniform:4,8,2.0",
            "--partitions",
            "8",
        ];
        let mut ctx = engine::Context::new(engine_opts(&args(&flags)).unwrap());
        let record =
            |k: i64, v: i64| engine::Record::new(engine::Key::Int(k), engine::Value::Int(v));
        let hot = (0..4000).map(|i| record(if i % 10 < 9 { 0 } else { i }, i));
        let uniform = (0..4000).map(|i| record(i % 400, i));
        let left = ctx.parallelize(hot.collect(), 8, "left");
        let right = ctx.parallelize(uniform.collect(), 8, "right");
        let joined = ctx.join(left, right, None, 1e-6, "join");
        let counts: Vec<u64> = (0..3).map(|_| ctx.count(joined, "join")).collect();
        assert_eq!(counts, [36_400; 3]);
    }

    #[test]
    fn mem_size_parsing() {
        assert_eq!(jobserver::parse_mem("1024"), Ok(1024));
        assert_eq!(jobserver::parse_mem("2k"), Ok(2048));
        assert_eq!(jobserver::parse_mem("512m"), Ok(512 * 1024 * 1024));
        assert_eq!(jobserver::parse_mem("2G"), Ok(2 * 1024 * 1024 * 1024));
        assert!(jobserver::parse_mem("lots").is_err());
        assert!(jobserver::parse_mem("12q").is_err());
        let err = opts_err(&["run", "--executor-mem", "99999999999g"]);
        assert!(err.contains("overflows"), "{err}");
    }

    #[test]
    fn executor_mem_flag_bounds_the_engine() {
        let o = engine_opts(&args(&["run", "--executor-mem", "256m"])).unwrap();
        assert_eq!(o.executor_mem, Some(256 * 1024 * 1024));
        assert!(o.per_task_mem_budget().is_some());
        let d = engine_opts(&args(&["run"])).unwrap();
        assert_eq!(d.executor_mem, None);
        let err = match engine_opts(&args(&["run", "--executor-mem", "banana"])) {
            Err(e) => e,
            Ok(_) => panic!("bad size must be rejected"),
        };
        assert!(err.contains("memory size"));
    }

    fn opts_err(tokens: &[&str]) -> String {
        match engine_opts(&args(tokens)) {
            Err(e) => e,
            Ok(_) => panic!("expected engine_opts to fail for {tokens:?}"),
        }
    }

    fn write_plan(name: &str, body: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("chopper-cli-faults-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        path
    }

    #[test]
    fn fault_plan_flag_loads_and_seed_overrides() {
        let path = write_plan("smoke.plan", "seed 7\ntask-fail-prob 0.1\nlose-node 1 30\n");
        let o = engine_opts(&args(&["run", "--fault-plan", path.to_str().unwrap()])).unwrap();
        let plan = o.faults.expect("plan installed");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.task_fail_prob, 0.1);
        assert_eq!(plan.node_loss.len(), 1);

        let o = engine_opts(&args(&[
            "run",
            "--fault-plan",
            path.to_str().unwrap(),
            "--fault-seed",
            "99",
        ]))
        .unwrap();
        assert_eq!(o.faults.unwrap().seed, 99, "--fault-seed wins");
    }

    #[test]
    fn fault_seed_without_plan_is_rejected() {
        let err = opts_err(&["run", "--fault-seed", "3"]);
        assert!(err.contains("--fault-plan"), "got: {err}");
    }

    #[test]
    fn malformed_fault_plan_reports_the_file_and_line() {
        let path = write_plan("bad.plan", "lose-node onlyonearg\n");
        let err = opts_err(&["run", "--fault-plan", path.to_str().unwrap()]);
        assert!(err.contains("bad.plan"), "got: {err}");
        assert!(err.contains("line 1"), "got: {err}");
    }

    #[test]
    fn fault_plan_composes_with_executor_mem() {
        let path = write_plan("ok.plan", "task-fail-prob 0.1\n");
        let o = engine_opts(&args(&[
            "run",
            "--fault-plan",
            path.to_str().unwrap(),
            "--executor-mem",
            "256m",
        ]))
        .unwrap();
        assert_eq!(o.executor_mem, Some(256 * 1024 * 1024));
        assert_eq!(o.faults.as_ref().map(|p| p.task_fail_prob), Some(0.1));
        assert_eq!(o.validate(), Ok(()));
    }

    #[test]
    fn fault_plan_node_out_of_range_is_rejected() {
        let path = write_plan("range.plan", "lose-node 7 10\n");
        let err = opts_err(&[
            "run",
            "--fault-plan",
            path.to_str().unwrap(),
            "--cluster",
            "uniform:3,4,2.0",
        ]);
        assert!(err.contains("node"), "got: {err}");
    }

    #[test]
    fn executor_mem_needs_no_engine_flag_and_pipeline_is_gone() {
        let o = engine_opts(&args(&["run", "--executor-mem", "16m"])).unwrap();
        assert_eq!(o.executor_mem, Some(16 * 1024 * 1024));
        let err = Args::parse(["run", "--pipeline", "on"]).unwrap_err();
        assert!(err.0.contains("unknown flag --pipeline"), "{err}");
        for tokens in [["run", "--batch", "off"], ["serve", "--batch", "on"]] {
            let err = Args::parse(tokens).unwrap_err();
            assert!(err.0.contains("unknown flag --batch"), "{tokens:?}: {err}");
        }
    }

    #[test]
    fn conf_loading_defaults_to_empty() {
        assert!(load_conf(&args(&["run"])).unwrap().is_empty());
        assert!(load_conf(&args(&["run", "--conf", "/nonexistent/x"])).is_err());
    }

    #[test]
    fn tuner_grid_flags() {
        let t = tuner(&args(&[
            "tune",
            "--scales",
            "0.2,0.4",
            "--test-partitions",
            "10,20",
        ]))
        .unwrap();
        assert_eq!(t.test_plan.scales, vec![0.2, 0.4]);
        assert_eq!(t.test_plan.partitions, vec![10, 20]);
        assert_eq!(t.test_plan.parallelism, 1, "serial grid by default");
        let t = tuner(&args(&["tune", "--test-parallelism", "4"])).unwrap();
        assert_eq!(t.test_plan.parallelism, 4);
    }

    #[test]
    fn run_rejects_bad_scale() {
        let err = run(&args(&["run", "--workload", "kmeans", "--scale", "0"])).unwrap_err();
        assert!(err.contains("scale"));
    }

    #[test]
    fn trace_writes_chrome_json_and_summary() {
        let dir = std::env::temp_dir().join(format!("chopper-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("t.json");
        let summary = dir.join("s.json");
        trace(&args(&[
            "trace",
            "--workload",
            "kmeans",
            "--scale",
            "0.05",
            "--partitions",
            "24",
            "--out",
            out.to_str().unwrap(),
            "--summary-out",
            summary.to_str().unwrap(),
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\""));
        assert!(json.contains("\"ph\":\"X\""));
        let sjson = std::fs::read_to_string(&summary).unwrap();
        assert!(sjson.starts_with("[{\"job_id\":0,"), "{sjson}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_rejects_bad_clock() {
        let err = trace(&args(&[
            "trace",
            "--workload",
            "kmeans",
            "--scale",
            "0.05",
            "--clock",
            "lunar",
        ]))
        .unwrap_err();
        assert!(err.contains("--clock"));
    }

    /// `EngineOptions` has no `Debug`, so unwrap the error by hand.
    fn serve_opts_err(tokens: &[&str]) -> String {
        match serve_engine_opts(&args(tokens)) {
            Err(e) => e,
            Ok(_) => panic!("expected serve_engine_opts to reject {tokens:?}"),
        }
    }

    #[test]
    fn serve_rejects_fault_plan_at_parse_time() {
        let err = serve_opts_err(&["serve", "--fault-plan", "plans/p.plan"]);
        assert!(err.contains("--fault-plan"), "{err}");
        assert!(err.contains("serve"), "{err}");
        let err = serve_opts_err(&["serve", "--fault-seed", "7"]);
        assert!(err.contains("serve"), "{err}");
    }

    #[test]
    fn serve_rejects_executor_mem_at_parse_time() {
        let err = serve_opts_err(&["serve", "--executor-mem", "512m"]);
        assert!(err.contains("--executor-mem"), "{err}");
        assert!(err.contains("--mem-shared"), "{err}");
    }

    #[test]
    fn serve_engine_flags_follow_defaults_and_overrides() {
        let d = serve_engine_opts(&args(&["serve"])).unwrap();
        let defaults = jobserver::server_engine_defaults();
        assert_eq!(d.default_parallelism, defaults.default_parallelism);
        let o =
            serve_engine_opts(&args(&["serve", "--workers", "2", "--partitions", "8"])).unwrap();
        assert_eq!(o.workers, 2);
        assert_eq!(o.default_parallelism, 8);
    }

    #[test]
    fn loadgen_then_serve_round_trip() {
        let dir = std::env::temp_dir().join("chopper_cli_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("jobs.trace");
        let results = dir.join("report.json");
        let tables = dir.join("tables.txt");
        loadgen(&args(&[
            "loadgen",
            "--tenants",
            "2",
            "--jobs",
            "8",
            "--seed",
            "3",
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        serve(&args(&[
            "serve",
            "--trace",
            trace_path.to_str().unwrap(),
            "--slots",
            "2",
            "--workers",
            "2",
            "--partitions",
            "8",
            "--cluster",
            "uniform:4,4,2.0",
            "--serial",
            "--results-out",
            results.to_str().unwrap(),
            "--tables-out",
            tables.to_str().unwrap(),
        ]))
        .unwrap();
        let report =
            jobserver::ServeReport::parse(&std::fs::read_to_string(&results).unwrap()).unwrap();
        assert_eq!(report.completed, 8);
        let tables_text = std::fs::read_to_string(&tables).unwrap();
        assert_eq!(tables_text, report.tables_text());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loadgen_requires_positive_counts() {
        let err = loadgen(&args(&["loadgen", "--tenants", "0", "--out", "x"])).unwrap_err();
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn serve_rejects_bad_policy() {
        let dir = std::env::temp_dir().join("chopper_cli_serve_policy_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("jobs.trace");
        std::fs::write(
            &trace_path,
            "tenant a weight 1\njob a at 0 wordcount scale 0.05 seed 1\n",
        )
        .unwrap();
        let err = serve(&args(&[
            "serve",
            "--trace",
            trace_path.to_str().unwrap(),
            "--policy",
            "lottery",
        ]))
        .unwrap_err();
        assert!(err.contains("lottery"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
