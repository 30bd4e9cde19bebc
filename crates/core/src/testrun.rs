//! Lightweight test runs (paper Section III-B).
//!
//! "If the collected data points are not sufficient, CHOPPER can initiate a
//! few test runs by varying the sampled input data size and the number of
//! partitions and record the execution time and the amount of shuffle data
//! produced." This module drives exactly that grid: a bootstrap run
//! discovers the workload's stage signatures, then each `(scale, partition
//! count, partitioner kind)` combination is executed on sampled input and
//! its per-stage observations are recorded into the workload database —
//! except a combination the bootstrap itself already ran, whose
//! observations are the bootstrap's and are recorded without a second run.

use crate::collector::{collect_dag, collect_observations, RunSnapshot};
use crate::db::WorkloadDb;
use crate::workload::Workload;
use engine::{EngineOptions, PartitionerKind, PartitionerSpec, WorkerPool, WorkloadConf};

/// The test-run grid.
#[derive(Debug, Clone)]
pub struct TestRunPlan {
    /// Input fractions to sample (kept small — these runs are "lightweight").
    pub scales: Vec<f64>,
    /// Partition counts to probe.
    pub partitions: Vec<usize>,
    /// Partitioner kinds to probe (both, so Algorithm 1 can choose).
    pub kinds: Vec<PartitionerKind>,
    /// Probe user-fixed stages too (sandboxed test runs only — production
    /// configurations never override user pins). Without this, fixed
    /// stages have no P-varied observations and Algorithm 3's repartition
    /// insertion can never justify itself.
    pub probe_user_fixed: bool,
    /// Grid cells executed concurrently. Each cell is an independent
    /// sandboxed run, so fanning them out changes nothing observable:
    /// results are recorded in grid order and every run's metrics are
    /// functions of the plan alone, not host thread interleaving.
    pub parallelism: usize,
}

impl Default for TestRunPlan {
    fn default() -> Self {
        TestRunPlan {
            scales: vec![0.1, 0.3, 0.6, 1.0],
            partitions: vec![60, 150, 300, 600, 1200],
            kinds: vec![PartitionerKind::Hash, PartitionerKind::Range],
            probe_user_fixed: true,
            parallelism: 1,
        }
    }
}

impl TestRunPlan {
    /// A minimal grid for fast tests/examples.
    pub fn quick() -> Self {
        TestRunPlan {
            scales: vec![0.1, 0.3],
            partitions: vec![30, 120, 300, 700],
            kinds: vec![PartitionerKind::Hash],
            probe_user_fixed: true,
            parallelism: 1,
        }
    }

    /// Total number of runs the grid records: one per cell, plus the
    /// bootstrap. A cell the bootstrap already ran is recorded, not
    /// executed (see [`run_test_grid`]).
    pub fn num_runs(&self) -> usize {
        1 + self.scales.len() * self.partitions.len() * self.kinds.len()
    }

    /// The stage signatures a cell forces: every configurable stage of the
    /// bootstrap's DAG, and the user-fixed ones too when
    /// [`probe_user_fixed`](TestRunPlan::probe_user_fixed) is set.
    pub fn probed_signatures(&self, bootstrap: &RunSnapshot) -> Vec<u64> {
        bootstrap
            .dag
            .iter()
            .filter(|s| {
                (s.configurable && !s.user_fixed) || (self.probe_user_fixed && s.user_fixed)
            })
            .map(|s| s.signature)
            .collect()
    }

    /// The configuration a cell runs under: `(kind, partitions)` on every
    /// probed signature.
    pub fn cell_conf(
        &self,
        signatures: &[u64],
        kind: PartitionerKind,
        partitions: usize,
    ) -> WorkloadConf {
        let mut conf = WorkloadConf::new();
        conf.override_user_fixed = self.probe_user_fixed;
        for &sig in signatures {
            conf.set_stage(sig, PartitionerSpec { kind, partitions });
        }
        conf
    }
}

/// Runs the test grid for `workload` and records everything into `db`:
/// the bootstrap and one run per cell, [`TestRunPlan::num_runs`] in all.
///
/// A cell at the bootstrap's scale whose `(kind, P)` is the scheme the
/// bootstrap ran every probed stage under forces nothing the bootstrap did
/// not already do, so — unless a re-plan hook is installed — it records a
/// copy of the bootstrap's observations and DAG instead of executing it
/// again.
///
/// Returns the number of runs executed.
pub fn run_test_grid(
    workload: &dyn Workload,
    engine_opts: &EngineOptions,
    plan: &TestRunPlan,
    db: &mut WorkloadDb,
) -> usize {
    let full = workload.full_input_bytes();

    // Grid cells are sandboxed runs whose virtual clocks all start at zero;
    // recording them into the caller's sink would interleave meaningless
    // virtual timelines. Cells therefore run untraced, and the parent sink
    // gets one wall-clock span per executed run (emitted in grid order
    // below).
    let sink = engine_opts.trace.clone();
    let mut cell_opts = engine_opts.clone();
    cell_opts.trace = engine::TraceSink::disabled();
    let cell_opts = &cell_opts;
    if sink.is_enabled() {
        sink.name_process(trace::pids::AUTOTUNE, "autotune (wall time)");
        sink.name_thread(trace::Track::new(trace::pids::AUTOTUNE, 0), "test-run grid");
    }

    // Bootstrap: one vanilla sampled run to discover stage signatures.
    let boot_scale = plan
        .scales
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min)
        .min(1.0);
    let boot_wall = sink.wall_now();
    let ctx = workload.run(cell_opts, &WorkloadConf::new(), boot_scale);
    let boot_bytes = (full as f64 * boot_scale) as u64;
    let boot_snapshot = collect_dag(ctx.jobs(), boot_bytes);
    let boot_observations = collect_observations(ctx.jobs(), boot_bytes);
    drop(ctx);
    let signatures = plan.probed_signatures(&boot_snapshot);
    db.record_run(
        workload.name(),
        boot_observations.clone(),
        boot_snapshot.clone(),
    );
    if sink.is_enabled() {
        sink.span(
            trace::Clock::Wall,
            trace::Track::new(trace::pids::AUTOTUNE, 0),
            format!("bootstrap scale={boot_scale}"),
            "testrun",
            boot_wall,
            sink.wall_now(),
            vec![
                ("scale", boot_scale.into()),
                ("signatures", signatures.len().into()),
            ],
        );
    }

    // The grid: force every probed stage to (kind, p) per run. Cells the
    // bootstrap already ran are not run again.
    let mut cells: Vec<(f64, usize, PartitionerKind)> = Vec::new();
    for &scale in &plan.scales {
        for &p in &plan.partitions {
            for &kind in &plan.kinds {
                cells.push((scale, p, kind));
            }
        }
    }
    // A re-plan hook is handed the active configuration, which a cell's
    // differs from the bootstrap's; only without one is the run the same.
    let ran_at_boot = |&(scale, p, kind): &(f64, usize, PartitionerKind)| {
        scale == boot_scale
            && engine_opts.replan.is_none()
            && boot_observations
                .iter()
                .filter(|(sig, _, _)| signatures.contains(sig))
                .all(|&(_, k, o)| k == kind && o.p == p as f64)
    };
    let executed: Vec<usize> = (0..cells.len())
        .filter(|&i| !ran_at_boot(&cells[i]))
        .collect();

    // Executed cells are independent sandboxed runs, so they fan out over
    // a worker pool; results land in the database in deterministic grid
    // order regardless of `plan.parallelism`.
    let pool = WorkerPool::new(plan.parallelism.max(1));
    let signatures = &signatures;
    let cell_sink = &sink;
    let results = pool.map(executed.len(), |j| {
        let (scale, p, kind) = cells[executed[j]];
        let conf = plan.cell_conf(signatures, kind, p);
        let wall_start = cell_sink.wall_now();
        let ctx = workload.run(cell_opts, &conf, scale);
        let bytes = (full as f64 * scale) as u64;
        (
            collect_observations(ctx.jobs(), bytes),
            collect_dag(ctx.jobs(), bytes),
            (wall_start, cell_sink.wall_now()),
        )
    });
    // Concurrent cells overlap in wall time; assign each the first free
    // lane (by start time) so Perfetto shows one slice row per in-flight
    // cell rather than overlapping slices on a single row.
    let mut lane_of = vec![0usize; results.len()];
    if sink.is_enabled() {
        let mut order: Vec<usize> = (0..results.len()).collect();
        order.sort_by(|&a, &b| {
            let (sa, sb) = (results[a].2 .0, results[b].2 .0);
            sa.total_cmp(&sb).then(a.cmp(&b))
        });
        let mut lane_end: Vec<f64> = Vec::new();
        for &i in &order {
            let (start, end) = results[i].2;
            let lane = lane_end
                .iter()
                .position(|&le| le <= start)
                .unwrap_or_else(|| {
                    lane_end.push(0.0);
                    lane_end.len() - 1
                });
            lane_end[lane] = end;
            lane_of[i] = lane;
        }
    }
    let mut results = results.into_iter().enumerate();
    for &(scale, p, kind) in &cells {
        if ran_at_boot(&(scale, p, kind)) {
            db.record_run(
                workload.name(),
                boot_observations.clone(),
                boot_snapshot.clone(),
            );
            continue;
        }
        let (i, (observations, dag, (wall_start, wall_end))) =
            results.next().expect("one result per executed cell");
        if sink.is_enabled() {
            let track = trace::Track::new(trace::pids::AUTOTUNE, lane_of[i] as u32);
            if !sink.has_thread_name(track) {
                sink.name_thread(track, &format!("grid lane {}", lane_of[i]));
            }
            sink.span(
                trace::Clock::Wall,
                track,
                format!("cell scale={scale} p={p} {kind:?}"),
                "testrun",
                wall_start,
                wall_end,
                vec![
                    ("scale", scale.into()),
                    ("partitions", p.into()),
                    ("kind", format!("{kind:?}").into()),
                ],
            );
        }
        db.record_run(workload.name(), observations, dag);
    }
    1 + executed.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::testutil::MiniAgg;
    use simcluster::uniform_cluster;

    fn small_opts() -> EngineOptions {
        EngineOptions {
            cluster: uniform_cluster(3, 4, 2.0),
            default_parallelism: 12,
            workers: 2,
            ..EngineOptions::default()
        }
    }

    #[test]
    fn grid_populates_database() {
        let w = MiniAgg {
            records_full: 5000,
            keys: 50,
        };
        let mut db = WorkloadDb::new();
        let plan = TestRunPlan {
            scales: vec![0.2, 0.5],
            partitions: vec![4, 12, 24],
            kinds: vec![PartitionerKind::Hash, PartitionerKind::Range],
            probe_user_fixed: true,
            parallelism: 3,
        };
        let runs = run_test_grid(&w, &small_opts(), &plan, &mut db);
        // Cell (0.2, 12, Hash) is the bootstrap's own configuration: it is
        // recorded but not executed.
        assert_eq!(runs, plan.num_runs() - 1);
        let rec = db.workload("mini-agg").unwrap();
        // 13 recorded runs × 2 stages of observations.
        assert_eq!(rec.num_observations(), plan.num_runs() * 2);
        assert_eq!(rec.runs.len(), plan.num_runs());
        assert!(rec.reference_run().is_some());
    }

    fn mini() -> MiniAgg {
        MiniAgg {
            records_full: 5000,
            keys: 50,
        }
    }

    /// 2 scales × 3 partition counts × 2 kinds; (0.2, 12, Hash) is the
    /// bootstrap's configuration under [`small_opts`].
    fn reuse_plan(parallelism: usize) -> TestRunPlan {
        TestRunPlan {
            scales: vec![0.2, 0.5],
            partitions: vec![4, 12, 24],
            kinds: vec![PartitionerKind::Hash, PartitionerKind::Range],
            probe_user_fixed: true,
            parallelism,
        }
    }

    /// The database the grid would record if it executed every cell.
    fn every_cell_executed(
        w: &dyn Workload,
        opts: &EngineOptions,
        plan: &TestRunPlan,
    ) -> WorkloadDb {
        let run = |conf: &WorkloadConf, scale: f64| {
            let ctx = w.run(opts, conf, scale);
            let bytes = (w.full_input_bytes() as f64 * scale) as u64;
            (
                collect_observations(ctx.jobs(), bytes),
                collect_dag(ctx.jobs(), bytes),
            )
        };
        let mut db = WorkloadDb::new();
        let (observations, boot) = run(&WorkloadConf::new(), 0.2);
        let signatures = plan.probed_signatures(&boot);
        db.record_run(w.name(), observations, boot);
        for &scale in &plan.scales {
            for &p in &plan.partitions {
                for &kind in &plan.kinds {
                    let (observations, dag) = run(&plan.cell_conf(&signatures, kind, p), scale);
                    db.record_run(w.name(), observations, dag);
                }
            }
        }
        db
    }

    #[test]
    fn a_reused_cell_records_what_executing_it_records() {
        let plan = reuse_plan(2);
        let mut db = WorkloadDb::new();
        run_test_grid(&mini(), &small_opts(), &plan, &mut db);
        let forced = every_cell_executed(&mini(), &small_opts(), &plan);
        assert_eq!(db.to_json(), forced.to_json());
    }

    #[test]
    fn cells_differing_in_kind_partitions_or_scale_are_executed() {
        let sink = engine::TraceSink::enabled();
        let mut opts = small_opts();
        opts.trace = sink.clone();
        let plan = reuse_plan(1);
        let runs = run_test_grid(&mini(), &opts, &plan, &mut WorkloadDb::new());
        let mut spans: Vec<String> = sink
            .events()
            .iter()
            .filter(|e| e.cat == "testrun")
            .map(|e| e.name.to_string())
            .collect();
        assert_eq!(spans.len(), runs);
        spans.sort();
        let mut want = vec!["bootstrap scale=0.2".to_string()];
        for scale in [0.2, 0.5] {
            for p in [4, 12, 24] {
                for kind in ["Hash", "Range"] {
                    if (scale, p, kind) != (0.2, 12, "Hash") {
                        want.push(format!("cell scale={scale} p={p} {kind}"));
                    }
                }
            }
        }
        want.sort();
        assert_eq!(spans, want, "only the bootstrap's own cell is skipped");
    }

    #[test]
    fn a_replan_hook_makes_every_cell_run() {
        let mut opts = small_opts();
        opts.replan = Some(std::sync::Arc::new(|_: &engine::ReplanInput| None));
        let plan = reuse_plan(2);
        let runs = run_test_grid(&mini(), &opts, &plan, &mut WorkloadDb::new());
        assert_eq!(runs, plan.num_runs());
    }

    #[test]
    fn serial_and_parallel_grids_record_the_same_bytes() {
        let db_of = |parallelism| {
            let mut db = WorkloadDb::new();
            run_test_grid(&mini(), &small_opts(), &reuse_plan(parallelism), &mut db);
            db.to_json()
        };
        assert_eq!(db_of(1), db_of(3));
    }

    #[test]
    fn grid_produces_observations_for_both_kinds() {
        let w = MiniAgg {
            records_full: 5000,
            keys: 50,
        };
        let mut db = WorkloadDb::new();
        let plan = TestRunPlan {
            scales: vec![0.3],
            partitions: vec![6, 18],
            kinds: vec![PartitionerKind::Hash, PartitionerKind::Range],
            probe_user_fixed: true,
            parallelism: 1,
        };
        run_test_grid(&w, &small_opts(), &plan, &mut db);
        let rec = db.workload("mini-agg").unwrap();
        let snapshot = rec.reference_run().unwrap().clone();
        let agg_sig = snapshot.dag.last().unwrap().signature;
        assert!(!rec.observations(agg_sig, PartitionerKind::Hash).is_empty());
        assert!(!rec.observations(agg_sig, PartitionerKind::Range).is_empty());
    }

    #[test]
    fn traced_grid_records_one_wall_span_per_run() {
        let w = MiniAgg {
            records_full: 5000,
            keys: 50,
        };
        let sink = engine::TraceSink::enabled();
        let mut opts = small_opts();
        opts.trace = sink.clone();
        let mut db = WorkloadDb::new();
        let plan = TestRunPlan {
            scales: vec![0.2, 0.5],
            partitions: vec![4, 12],
            kinds: vec![PartitionerKind::Hash],
            probe_user_fixed: true,
            parallelism: 2,
        };
        let runs = run_test_grid(&w, &opts, &plan, &mut db);
        let events = sink.events();
        let cell_spans = events
            .iter()
            .filter(|e| e.track.pid == trace::pids::AUTOTUNE && e.cat == "testrun")
            .count();
        assert_eq!(cell_spans, runs, "bootstrap + one span per grid cell");
        // Sandboxed cells run untraced: no virtual-clock events leak in.
        assert!(events.iter().all(|e| e.clock == trace::Clock::Wall));
    }

    #[test]
    fn forced_partition_counts_show_up_in_observations() {
        let w = MiniAgg {
            records_full: 5000,
            keys: 50,
        };
        let mut db = WorkloadDb::new();
        let plan = TestRunPlan {
            scales: vec![0.3],
            partitions: vec![7],
            kinds: vec![PartitionerKind::Hash],
            probe_user_fixed: true,
            parallelism: 2,
        };
        run_test_grid(&w, &small_opts(), &plan, &mut db);
        let rec = db.workload("mini-agg").unwrap();
        let agg_sig = rec.reference_run().unwrap().dag.last().unwrap().signature;
        let obs = rec.observations(agg_sig, PartitionerKind::Hash);
        assert!(
            obs.iter().any(|o| (o.p - 7.0).abs() < 1e-9),
            "the forced P=7 run must be recorded: {obs:?}"
        );
    }
}
