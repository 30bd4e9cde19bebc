//! The names, units and directions of every metric the benchmark prints —
//! the same table `BENCHMARK.json` carries (a test keeps them equal).

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Must repeat bit-for-bit between sets of the same code and seed.
    pub exact: bool,
}

/// All five are lower-is-better.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "virtual_s",
        unit: "virtual_s",
        bound: 0.05,
        exact: true,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that must repeat bit-for-bit between sets.
    pub exact: bool,
}

const fn time(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}
const fn rate(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}
const fn exact(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

/// Per-layer metrics, grouped by the crate or module they measure. A
/// metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: [Layer; 72] = [
    time("engine.dataplane_s", "s"),
    time("engine.driver_s", "s"),
    time("engine.us_per_task", "us"),
    exact("engine.tasks", "count"),
    rate("engine.records_per_s", "1/s"),
    exact("engine.shuffle_bytes", "bytes"),
    time("engine.context_new_us", "us"),
    time("engine.stage.plan_job_us", "us"),
    time("engine.partitioner.range_build_us", "us"),
    time("engine.partitioner.assign_ns_per_key", "ns"),
    time("engine.shuffle.bucketize_rows_ns_per_rec", "ns"),
    time("engine.shuffle.bucketize_cols_ns_per_rec", "ns"),
    time("engine.batch.build_ns_per_rec", "ns"),
    time("engine.shuffle.bucketize_us_per_task", "us"),
    time("engine.shuffle.merge_ns_per_rec", "ns"),
    time("engine.shuffle.merge_us_per_task", "us"),
    time("engine.pool.dispatch_us_per_item", "us"),
    time("engine.pool.stolen_ratio", "ratio"),
    time("engine.pool.idle_epochs", "count"),
    rate("engine.workers_speedup", "ratio"),
    rate("engine.pipeline_speedup", "ratio"),
    rate("engine.batch_speedup", "ratio"),
    exact("engine.adaptive.splits", "count"),
    time("simcluster.replay_s", "s"),
    time("simcluster.us_per_task", "us"),
    exact("simcluster.events", "count"),
    time("simcluster.rack_us_per_task", "us"),
    rate("netsim.flow_events_per_s", "1/s"),
    rate("netsim.queue_events_per_s", "1/s"),
    exact("blockstore.read_txns", "count"),
    exact("blockstore.write_txns", "count"),
    exact("memman.evictions", "count"),
    exact("memman.spill_bytes", "bytes"),
    exact("memman.rereads", "count"),
    time("memman.governed_over_free", "ratio"),
    exact("faults.retried_tasks", "count"),
    exact("faults.recomputed_map_tasks", "count"),
    time("faults.faulted_over_free", "ratio"),
    time("workloads.kmeans.run_s", "s"),
    time("workloads.pca.run_s", "s"),
    time("workloads.sql.run_s", "s"),
    time("workloads.logreg.run_s", "s"),
    time("workloads.skewagg.run_s", "s"),
    time("workloads.kmeans_governed.run_s", "s"),
    time("workloads.sql_faulted.run_s", "s"),
    rate("workloads.datagen.points_per_s", "1/s"),
    rate("workloads.datagen.rows_per_s", "1/s"),
    time("chopper.vanilla_run_s", "s"),
    time("chopper.testrun.train_s", "s"),
    exact("chopper.testrun.runs", "count"),
    time("chopper.tuned_run_s", "s"),
    time("chopper.testrun.wide_cell_share", "ratio"),
    time("chopper.model.fit_us", "us"),
    time("chopper.optimizer.plan_ms", "ms"),
    time("chopper.adaptive.replan_us", "us"),
    time("chopper.db.json_roundtrip_ms", "ms"),
    exact("chopper.db.bytes", "bytes"),
    Layer {
        name: "chopper.improvement_pct",
        unit: "%",
        better: Better::Higher,
        exact: true,
    },
    time("jobserver.server.us_per_job", "us"),
    rate("jobserver.jobs_per_s", "1/s"),
    time("jobserver.jobs.cold_us", "us"),
    time("jobserver.jobs.warm_us", "us"),
    rate("jobserver.cache_hit_ratio", "ratio"),
    time("jobserver.threads_over_serial", "ratio"),
    exact("jobserver.rejects", "count"),
    exact("jobserver.mem_stalls", "count"),
    exact("jobserver.p50_latency_vs", "virtual_s"),
    exact("jobserver.p99_interactive_vs", "virtual_s"),
    time("jobserver.trace_file.roundtrip_ms", "ms"),
    time("trace.overhead_pct", "%"),
    time("trace.events", "count"),
    time("trace.export_ms", "ms"),
];

/// Metric values by name. Setting a name the tables above do not list is a
/// bug in the benchmark and panics.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        let known = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the tables"));
        self.0.insert(known, value);
    }

    /// The value set for `name`; 0 when the metric does not apply to this
    /// workload and was never set.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Json;

    fn field<'a>(obj: &'a Json, name: &str) -> &'a Json {
        obj.get_field(name)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{name}`"))
    }

    fn text(j: &Json) -> &str {
        match j {
            Json::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn items(j: &Json) -> &[Json] {
        match j {
            Json::Arr(a) => a,
            other => panic!("expected an array, got {other:?}"),
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let e2e = items(field(&doc, "end_to_end"));
        assert_eq!(e2e.len(), END_TO_END.len());
        for (listed, ours) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(field(listed, "name")), ours.name);
            assert_eq!(text(field(listed, "unit")), ours.unit);
            assert_eq!(text(field(listed, "better")), "lower");
            match field(listed, "bound") {
                Json::Float(b) => assert_eq!(*b, ours.bound, "{}", ours.name),
                other => panic!("bound of {} is {other:?}", ours.name),
            }
        }
        let layers = items(field(&doc, "per_layer"));
        assert_eq!(layers.len(), PER_LAYER.len());
        for (listed, ours) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(field(listed, "name")), ours.name);
            assert_eq!(text(field(listed, "unit")), ours.unit);
            assert_eq!(text(field(listed, "better")), ours.better.as_str());
        }
        let workloads: Vec<&str> = items(field(&doc, "workloads"))
            .iter()
            .map(|w| text(field(w, "name")))
            .collect();
        let ours: Vec<&str> = crate::suites::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }
}
