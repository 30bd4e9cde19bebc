//! Property-based tests for the cluster simulator's scheduling invariants.
//!
//! There is one stage loop, so every property draws its cluster from one
//! strategy: the paper testbed and a uniform cluster, each on the flat
//! fabric, as one full-bisection rack, and behind oversubscribed rack
//! uplinks. Tasks carry a remote fetch so the flow network is exercised.

use proptest::prelude::*;
use simcluster::{paper_cluster, uniform_cluster, ClusterSpec, Simulation, TaskSpec, Topology};

fn rack(racks: usize, hosts: usize, oversub: f64) -> Topology {
    Topology::Rack {
        racks,
        hosts,
        oversub,
    }
}

fn arb_case() -> impl Strategy<Value = (ClusterSpec, Vec<TaskSpec>)> {
    (
        0usize..6,
        proptest::collection::vec(
            (0.01f64..50.0, 0u64..1_000_000, 0usize..64, 0u64..20_000_000),
            1..120,
        ),
    )
        .prop_map(|(shape, raw)| {
            let spec = match shape {
                0 => paper_cluster(),
                1 => paper_cluster().with_topology(rack(1, 5, 1.0)),
                2 => paper_cluster().with_topology(rack(2, 3, 4.0)),
                3 => uniform_cluster(6, 2, 2.0),
                4 => uniform_cluster(6, 2, 2.0).with_topology(rack(1, 6, 1.0)),
                _ => uniform_cluster(6, 2, 2.0).with_topology(rack(3, 2, 4.0)),
            };
            let n = spec.num_nodes();
            let tasks = raw
                .into_iter()
                .map(|(cost, mem, src, bytes)| TaskSpec {
                    compute_cost: cost,
                    memory_bytes: mem,
                    fetches: vec![(src % n, bytes)],
                    ..TaskSpec::default()
                })
                .collect();
            (spec, tasks)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The makespan is bounded below by both the critical task and the
    /// capacity-optimal time, and bounded above by a serial execution on
    /// the slowest node with every transfer squeezed to its worst share.
    #[test]
    fn makespan_bounds((spec, tasks) in arb_case()) {
        let overhead = spec.task_launch_overhead;
        let dispatch = spec.dispatch_interval;
        let fastest: f64 =
            spec.nodes.iter().map(|n| n.speed).fold(0.0, f64::max);
        let slowest: f64 =
            spec.nodes.iter().map(|n| n.speed).fold(f64::INFINITY, f64::min);
        let capacity: f64 = spec.nodes.iter().map(|n| n.cores as f64 * n.speed).sum();
        let latency = spec.nodes[0].net_latency;
        // Max-min sharing never gives a flow less than an equal split of
        // its tightest link among every task that can be running.
        let worst_share = spec
            .nodes
            .iter()
            .map(|n| n.net_bandwidth)
            .chain(spec.rack_link_capacities())
            .fold(f64::INFINITY, f64::min)
            / spec.total_cores() as f64;

        let total_work: f64 = tasks.iter().map(|t| t.compute_cost).sum();
        let max_task: f64 =
            tasks.iter().map(|t| t.compute_cost).fold(0.0, f64::max);
        let total_bytes: u64 = tasks.iter().map(|t| t.fetches[0].1).sum();

        let mut sim = Simulation::new(spec);
        let timing = sim.run_stage(&tasks);

        // Lower bounds: critical task on the slowest node it could land on
        // is not guaranteed (it may land on a fast node), so use the
        // fastest-node time; capacity bound always holds.
        prop_assert!(timing.duration() >= max_task / fastest + overhead - 1e-9);
        prop_assert!(timing.duration() >= total_work / capacity - 1e-9);

        let upper = total_work / slowest
            + total_bytes as f64 / worst_share
            + tasks.len() as f64 * (overhead + dispatch + latency)
            + 1e-6;
        prop_assert!(timing.duration() <= upper,
            "makespan {} exceeds serial upper bound {}", timing.duration(), upper);
    }

    /// Every task is placed on a valid node, starts after its dispatch
    /// slot, and ends after it starts.
    #[test]
    fn placements_are_well_formed((spec, tasks) in arb_case()) {
        let nodes = spec.num_nodes();
        let dispatch = spec.dispatch_interval;
        let mut sim = Simulation::new(spec);
        let t0 = sim.clock();
        let timing = sim.run_stage(&tasks);
        for (i, t) in timing.tasks.iter().enumerate() {
            prop_assert!(t.node < nodes);
            prop_assert!(t.end > t.start);
            prop_assert!(t.start >= t0 + i as f64 * dispatch - 1e-12,
                "task {i} started before its dispatch slot");
        }
        prop_assert!((timing.end - timing.tasks.iter().map(|t| t.end).fold(0.0, f64::max)).abs() < 1e-9);
    }

    /// No node ever runs more concurrent tasks than it has cores.
    #[test]
    fn core_capacity_is_never_exceeded((spec, tasks) in arb_case()) {
        let cores: Vec<usize> = spec.nodes.iter().map(|n| n.cores).collect();
        let mut sim = Simulation::new(spec);
        let timing = sim.run_stage(&tasks);
        // Check overlap at every task start instant.
        for probe in &timing.tasks {
            for (node, &node_cores) in cores.iter().enumerate() {
                let concurrent = timing
                    .tasks
                    .iter()
                    .filter(|t| {
                        t.node == node && t.start <= probe.start + 1e-12 && t.end > probe.start + 1e-9
                    })
                    .count();
                prop_assert!(concurrent <= node_cores,
                    "node {node} ran {concurrent} tasks at t={}", probe.start);
            }
        }
    }

    /// The virtual clock is monotone across stages and equals the last
    /// stage's end.
    #[test]
    fn clock_monotonicity((spec, tasks) in arb_case(), stages in 1usize..4) {
        let mut sim = Simulation::new(spec);
        let mut last_end = 0.0;
        for _ in 0..stages {
            let timing = sim.run_stage(&tasks);
            prop_assert!(timing.start >= last_end - 1e-12);
            prop_assert!(timing.end >= timing.start);
            last_end = timing.end;
            prop_assert!((sim.clock() - last_end).abs() < 1e-12);
        }
    }

    /// Identical inputs always produce identical schedules (determinism).
    #[test]
    fn schedules_are_deterministic((spec, tasks) in arb_case()) {
        let run = || {
            let mut sim = Simulation::new(spec.clone());
            (sim.run_stage(&tasks), sim.events_processed(), sim.io_stats())
        };
        prop_assert_eq!(run(), run());
    }

    /// A uniformly slower cluster never finishes earlier. (Compute-only
    /// tasks on identical machines: with transfers or mixed speeds, list
    /// scheduling admits timing anomalies, so this is not a law there.)
    #[test]
    fn slower_cluster_is_never_faster(costs in proptest::collection::vec(0.01f64..50.0, 1..120)) {
        let tasks: Vec<TaskSpec> = costs.into_iter().map(TaskSpec::compute).collect();
        let fast = {
            let mut sim = Simulation::new(uniform_cluster(3, 4, 2.5));
            sim.run_stage(&tasks).duration()
        };
        let slow = {
            let mut sim = Simulation::new(uniform_cluster(3, 4, 1.0));
            sim.run_stage(&tasks).duration()
        };
        prop_assert!(slow >= fast - 1e-9, "slow {slow} < fast {fast}");
    }

    /// CPU utilization from the trace never exceeds 100 % and total busy
    /// core-seconds equal the sum of task durations.
    #[test]
    fn trace_accounts_exact_busy_time((spec, tasks) in arb_case()) {
        let total_cores = spec.total_cores() as f64;
        let mut sim = Simulation::with_trace_bucket(spec, 1.0);
        let timing = sim.run_stage(&tasks);
        let busy_expected: f64 = timing.tasks.iter().map(|t| t.end - t.start).sum();
        let points = sim.trace().points();
        let busy_traced: f64 = points
            .iter()
            .map(|p| p.cpu_pct / 100.0 * total_cores * 1.0)
            .sum();
        prop_assert!((busy_traced - busy_expected).abs() < 1e-6 * busy_expected.max(1.0),
            "traced {busy_traced} vs actual {busy_expected}");
        for p in &points {
            prop_assert!(p.cpu_pct <= 100.0 + 1e-9);
        }
    }
}
