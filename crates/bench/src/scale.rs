//! Fig scale — topology-aware tuning from 6 to 1000 nodes.
//!
//! The sweep behind `repro fig_scale`: at each cluster size the same
//! weak-scaled aggregation workload is auto-tuned twice, once on a flat
//! fabric and once on an oversubscribed rack/spine fabric
//! (`rack:<racks>x<hosts>:4`), and the tuned plans are diffed stage by
//! stage. Both runs execute on the one netsim flow engine; the rack
//! fabric adds contended ToR uplinks and rack-aware placement, and the
//! optimizer judges shuffle significance against the degraded cross-rack
//! bandwidth, so the chosen partition count or partitioner can flip where
//! the flat fabric says it should not.
//!
//! Everything here is virtual-clock deterministic: the report
//! regenerates verbatim regardless of host worker count, so CI's doc-sync
//! step (`repro all`, then `git diff --exit-code -- results/`) pins
//! `results/fig_scale.txt` — its `events` / `flows` columns are the
//! runner-portable tractability contract of the 1000-node cells. The
//! headline claim, that the rack fabric flips a stage at 1000 nodes, is
//! this module's unit test; host wall-clock (events per second included)
//! is measured by `benchmark/` alone.

use crate::{fmt_time, Table, DATA_SCALE};
use chopper::{Autotuner, DecisionAction, TestRunPlan, Workload};
use engine::{
    Context, Emit, EngineOptions, FlatMapFn, GenFn, Key, MapFn, PartitionerKind, Record, ReduceFn,
    Value, WorkloadConf,
};
use simcluster::{uniform_cluster, ClusterSpec, Topology};
use std::sync::Arc;

/// The sweep's cluster sizes (hosts). 6 matches the paper's testbed
/// scale; 1000 is the ROADMAP's 100x+ target.
pub const SCALE_NODES: [usize; 3] = [6, 96, 1000];

/// Core-link oversubscription of the rack cells: each ToR uplink carries
/// `hosts` NICs' worth of traffic over `hosts/4` NICs' worth of capacity.
pub const SCALE_OVERSUB: f64 = 4.0;

/// Virtual input bytes per host (weak scaling: the data grows with the
/// cluster, as a production ingest would).
const PER_NODE_BYTES: u64 = 8_000_000;

/// Host-side record count, fixed across the sweep so the wall-clock cost
/// of a 1000-node cell stays close to a 6-node cell's — only the
/// *virtual* bytes scale.
const LINES: usize = 24_000;

/// Records emitted per scanned line by the widening flat-map.
const FAN: usize = 4;

/// Distinct keys of the wide aggregation. Small enough that map-side
/// combine collapses low-P shuffles hard, so shuffle volume rises with P
/// and the significance weighting has a real slope to act on.
const KEYS: u64 = 500;

/// Units of compute per scanned line / per aggregated record.
const LINE_COST: f64 = 0.1;
const REC_COST: f64 = 0.01;

/// Length of the shared f64 payload each widened record carries, scaled
/// with √nodes. Shuffle accounting charges the payload's *encoded* size
/// while the host only clones an `Arc`, so the sweep's shuffle volume
/// weak-scales from ~90 MB at 6 hosts to ~1 GB at 1000 without the
/// wall-clock cost of materializing it.
fn payload_len(nodes: usize) -> usize {
    (24.0 * (nodes as f64).sqrt()).round() as usize
}

/// The rack grid for `nodes` hosts: the largest divisor ≤ √nodes, so the
/// fabric is as square as the host count allows (6 → 2x3, 96 → 8x12,
/// 1000 → 25x40) and every slot is filled.
pub fn rack_grid(nodes: usize) -> (usize, usize) {
    let racks = (1..=nodes)
        .take_while(|r| r * r <= nodes)
        .filter(|r| nodes.is_multiple_of(*r))
        .last()
        .unwrap_or(1);
    (racks, nodes / racks)
}

/// The oversubscribed rack topology for a sweep cell.
pub fn rack_topology(nodes: usize) -> Topology {
    let (racks, hosts) = rack_grid(nodes);
    Topology::Rack {
        racks,
        hosts,
        oversub: SCALE_OVERSUB,
    }
}

/// A uniform cluster at sweep scale, with byte-denominated capacities
/// shrunk by [`DATA_SCALE`] exactly like `paper_engine` shrinks the
/// testbed, so the weak-scaled inputs keep realistic shuffle-to-compute
/// ratios.
pub fn scale_cluster(nodes: usize) -> ClusterSpec {
    let mut cluster = uniform_cluster(nodes, 4, 2.0);
    let scale = DATA_SCALE as f64;
    for node in &mut cluster.nodes {
        node.memory_bytes /= DATA_SCALE;
        node.net_bandwidth /= scale;
        node.disk_bandwidth /= scale;
    }
    cluster.cache_bandwidth /= scale;
    cluster
}

/// The sweep workload: scan → widening flat-map → wide aggregation →
/// re-key → narrow aggregation. Two configurable shuffle stages with
/// very different volumes, which is where flat and rack tuning can part
/// ways.
pub struct ScaleAgg {
    /// Hosts in the cell's cluster; sets the virtual input volume.
    pub nodes: usize,
}

impl Workload for ScaleAgg {
    fn name(&self) -> &str {
        "scale-agg"
    }

    fn full_input_bytes(&self) -> u64 {
        self.nodes as u64 * PER_NODE_BYTES
    }

    fn run(&self, opts: &EngineOptions, conf: &WorkloadConf, scale: f64) -> Context {
        let mut ctx = Context::new(opts.clone());
        ctx.set_conf(conf.clone());
        let n = ((LINES as f64 * scale) as usize).max(1);
        let gen: GenFn = Arc::new(move |i, parts, out: &mut dyn Emit| {
            for j in i * n / parts..(i + 1) * n / parts {
                out.emit(Record::new(Key::Int(j as i64), Value::Int(1)));
            }
        });
        let bytes = ((self.full_input_bytes() as f64 * scale) as u64).max(1);
        let lines = ctx.text_file("scale-in", bytes, gen, LINE_COST, "scan");
        let payload: Arc<[f64]> = Arc::from(vec![1.0; payload_len(self.nodes)]);
        let widen: FlatMapFn = Arc::new(move |r: &Record, out: &mut dyn Emit| {
            let line = match &r.key {
                Key::Int(i) => *i as u64,
                other => panic!("malformed line key {other:?}"),
            };
            let mut wide = Record::keyless(Value::Vector(Arc::clone(&payload)));
            for f in 0..FAN as u64 {
                let h = line.wrapping_mul(2654435761).wrapping_add(f * 193);
                wide.key = Key::Int((h % KEYS) as i64);
                out.lend(&wide);
            }
        });
        let wide = ctx.flat_map(lines, widen, REC_COST, "widen");
        // Every payload is the same shared vector, so a keep-left merge is
        // associative/commutative in the only sense that matters here: the
        // aggregate's value is identical no matter the merge order.
        let sum: ReduceFn = Arc::new(|a: &Value, _b: &Value| a.clone());
        let counts = ctx.reduce_by_key(wide, Arc::clone(&sum), None, REC_COST, "agg-wide");
        let rekey: MapFn = Arc::new(|r: &Record| {
            let k = match &r.key {
                Key::Int(i) => *i,
                other => panic!("malformed key {other:?}"),
            };
            Record::new(Key::Int(k % 50), r.value.clone())
        });
        let coarse = ctx.map(counts, rekey, REC_COST, "rekey");
        let rollup = ctx.reduce_by_key(coarse, sum, None, REC_COST, "agg-coarse");
        ctx.count(rollup, "scale-agg");
        ctx
    }
}

/// One tuned cell of the sweep.
pub struct CellResult {
    /// Hosts in the cluster.
    pub nodes: usize,
    /// The cell's fabric.
    pub topology: Topology,
    /// Vanilla (300-partition default) virtual runtime.
    pub vanilla_time: f64,
    /// Tuned virtual runtime.
    pub tuned_time: f64,
    /// Per-stage tuning outcome, in decision order: `(stage, choice)`.
    pub decisions: Vec<(String, String)>,
    /// Simulation events processed by the tuned run.
    pub events: u64,
    /// Netsim flows completed by the tuned run.
    pub flows: u64,
}

impl CellResult {
    /// The cell's row in the fig_scale table.
    fn row_cells(&self) -> Vec<String> {
        let decisions = self
            .decisions
            .iter()
            .map(|(n, c)| format!("{n}={c}"))
            .collect::<Vec<_>>()
            .join(" ");
        vec![
            self.nodes.to_string(),
            self.topology.to_string(),
            fmt_time(self.vanilla_time),
            fmt_time(self.tuned_time),
            self.events.to_string(),
            self.flows.to_string(),
            decisions,
        ]
    }
}

/// Renders a tuning decision as a stable cell string.
fn decision_str(action: &DecisionAction) -> String {
    let spec_str = |s: &engine::PartitionerSpec| {
        let kind = match s.kind {
            PartitionerKind::Hash => "hash",
            PartitionerKind::Range => "range",
        };
        format!("{kind}@{}", s.partitions)
    };
    match action {
        DecisionAction::Retune(s) => spec_str(s),
        DecisionAction::RetuneGrouped(s) => format!("{}+co", spec_str(s)),
        DecisionAction::InsertRepartition(s) => format!("{}+repart", spec_str(s)),
        DecisionAction::KeepUserFixed => "user-fixed".into(),
        DecisionAction::KeepDefault => "default".into(),
        DecisionAction::FollowsProducer(sig) => format!("follows-{sig:08x}"),
    }
}

/// Auto-tunes the sweep workload on a `nodes`-host cluster with the
/// given fabric and reports what the optimizer chose.
pub fn run_cell(nodes: usize, topology: Topology) -> CellResult {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .min(4);
    let base = EngineOptions {
        cluster: scale_cluster(nodes).with_topology(topology),
        default_parallelism: 300,
        workers,
        ..EngineOptions::default()
    };
    let mut t = Autotuner::new(base);
    t.test_plan = TestRunPlan {
        scales: vec![0.25, 0.5, 1.0],
        partitions: vec![60, 150, 300, 600, 1200],
        kinds: vec![PartitionerKind::Hash, PartitionerKind::Range],
        probe_user_fixed: true,
        parallelism: workers,
    };
    let cmp = t.compare(&ScaleAgg { nodes });
    let decisions = cmp
        .plan
        .decisions
        .iter()
        .map(|d| (d.name.clone(), decision_str(&d.action)))
        .collect();
    let net = cmp.chopper.sim().network_stats();
    CellResult {
        nodes,
        topology,
        vanilla_time: cmp.vanilla_time(),
        tuned_time: cmp.chopper_time(),
        decisions,
        events: cmp.chopper.sim().events_processed(),
        flows: net.flows_completed,
    }
}

/// The full 6 → 96 → 1000 sweep: flat and oversubscribed rack at every
/// size.
pub struct ScaleSweep {
    /// `(flat, rack)` per entry of [`SCALE_NODES`].
    pub cells: Vec<(CellResult, CellResult)>,
}

/// Runs the whole sweep.
pub fn run_sweep() -> ScaleSweep {
    let cells = SCALE_NODES
        .iter()
        .map(|&n| {
            eprintln!("[fig_scale] tuning {n}-node flat cell...");
            let flat = run_cell(n, Topology::Flat);
            eprintln!("[fig_scale] tuning {n}-node {} cell...", rack_topology(n));
            let rack = run_cell(n, rack_topology(n));
            (flat, rack)
        })
        .collect();
    ScaleSweep { cells }
}

impl ScaleSweep {
    /// Stages whose tuned choice differs between the flat and rack cell:
    /// `(nodes, stage, flat choice, rack choice)`.
    pub fn flips(&self) -> Vec<(usize, String, String, String)> {
        let mut out = Vec::new();
        for (flat, rack) in &self.cells {
            for (name, f) in &flat.decisions {
                if let Some((_, r)) = rack.decisions.iter().find(|(n, _)| n == name) {
                    if f != r {
                        out.push((flat.nodes, name.clone(), f.clone(), r.clone()));
                    }
                }
            }
        }
        out
    }

    /// The per-cell table (one row per fabric per size).
    pub fn cells_table(&self) -> String {
        let mut t = Table::new(&[
            "nodes",
            "fabric",
            "vanilla",
            "tuned",
            "events",
            "flows",
            "decisions",
        ]);
        for (flat, rack) in &self.cells {
            for cell in [flat, rack] {
                t.row(cell.row_cells());
            }
        }
        t.render()
    }

    /// The flip table (empty table body when nothing flips).
    pub fn flips_table(&self) -> String {
        let mut t = Table::new(&["nodes", "stage", "flat chose", "rack chose"]);
        for (nodes, stage, f, r) in self.flips() {
            t.row(vec![nodes.to_string(), stage, f, r]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rack_fabric_flips_a_stage_at_1000_nodes() {
        let flat = run_cell(1000, Topology::Flat);
        let rack = run_cell(1000, rack_topology(1000));
        assert_ne!(
            flat.decisions, rack.decisions,
            "the oversubscribed fabric must re-tune at least one stage"
        );
    }
}
