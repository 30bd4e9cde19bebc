//! Emits a stage schedule into a [`TraceSink`] as
//! per-core-lane Perfetto tracks.
//!
//! This is the one schedule view: every task gets a *lane* on its node
//! and one complete span, so Perfetto shows the stage timeline (the
//! barrier a straggler holds, the node a pin forces) core by core.
//!
//! Lane assignment is deterministic: tasks are processed in ascending
//! `(start, submission index)` order and each takes the first lane on its
//! node that is free at its start time. Because the simulator schedules
//! per core, a node never needs more lanes than it has cores. Identical
//! inputs therefore produce identical tracks — which is what lets the
//! determinism suite byte-compare exported traces.

use crate::spec::ClusterSpec;
use crate::StageTiming;
use ::trace::{pids, Clock, TraceSink, Track};

/// Emits one span per task onto per-node-core lanes of the
/// [`pids::CLUSTER`] process. `stage_label` prefixes task names
/// (`"{stage_label}.t{i}"`); `stage_id` is attached as an arg.
///
/// No-op when the sink is disabled.
pub fn emit_stage_trace(
    sink: &TraceSink,
    spec: &ClusterSpec,
    timing: &StageTiming,
    stage_label: &str,
    stage_id: usize,
) {
    if !sink.is_enabled() {
        return;
    }
    sink.name_process(pids::CLUSTER, "cluster (virtual time)");

    // Global tid base per node: lanes of node n live at
    // [base[n], base[n] + cores[n]).
    let mut base = Vec::with_capacity(spec.num_nodes());
    let mut acc = 0u32;
    for node in &spec.nodes {
        base.push(acc);
        acc += node.cores as u32;
    }

    // First free lane per node at each task's start, in (start, index)
    // order — ties broken by submission order, so assignment is total.
    let mut order: Vec<usize> = (0..timing.tasks.len()).collect();
    order.sort_by(|&a, &b| {
        let (ta, tb) = (&timing.tasks[a], &timing.tasks[b]);
        ta.start.total_cmp(&tb.start).then(a.cmp(&b))
    });
    let mut lane_end: Vec<Vec<f64>> = spec.nodes.iter().map(|n| vec![0.0; n.cores]).collect();

    for &i in &order {
        let t = &timing.tasks[i];
        let lanes = &mut lane_end[t.node];
        let lane = lanes
            .iter()
            .position(|&end| end <= t.start)
            .unwrap_or_else(|| {
                // Overlap beyond core count (defensive: shouldn't happen
                // with per-core scheduling) — reuse the earliest lane.
                lanes
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(l, _)| l)
                    .unwrap_or(0)
            });
        lanes[lane] = t.end;

        let track = Track::new(pids::CLUSTER, base[t.node] + lane as u32);
        if !sink.has_thread_name(track) {
            sink.name_thread(track, &format!("{}.c{}", spec.nodes[t.node].name, lane));
        }
        sink.span(
            Clock::Virtual,
            track,
            format!("{stage_label}.t{i}"),
            "task",
            t.start,
            t.end,
            vec![
                ("stage", stage_id.into()),
                ("task", i.into()),
                ("node", t.node.into()),
                ("dur_s", t.duration().into()),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::uniform_cluster;
    use crate::{Simulation, TaskSpec};
    use ::trace::{ClockFilter, Phase};

    fn run(tasks: Vec<TaskSpec>) -> (ClusterSpec, StageTiming) {
        let spec = uniform_cluster(2, 2, 1.0);
        let mut sim = Simulation::new(spec.clone());
        let timing = sim.run_stage(&tasks);
        (spec, timing)
    }

    #[test]
    fn emits_one_span_per_task() {
        let (spec, timing) = run(vec![TaskSpec::compute(2.0); 6]);
        let sink = TraceSink::enabled();
        emit_stage_trace(&sink, &spec, &timing, "s0", 0);
        let spans = sink
            .events()
            .iter()
            .filter(|e| matches!(e.phase, Phase::Span { .. }))
            .count();
        assert_eq!(spans, 6);
    }

    #[test]
    fn lanes_never_overlap() {
        let (spec, timing) = run(vec![TaskSpec::compute(1.5); 9]);
        let sink = TraceSink::enabled();
        emit_stage_trace(&sink, &spec, &timing, "s0", 0);
        // Per track, spans sorted by start must not overlap.
        let mut by_track: std::collections::BTreeMap<u32, Vec<(f64, f64)>> = Default::default();
        for e in sink.events() {
            if let Phase::Span { dur_us } = e.phase {
                by_track
                    .entry(e.track.tid)
                    .or_default()
                    .push((e.ts_us, e.ts_us + dur_us));
            }
        }
        for (tid, mut spans) in by_track {
            spans.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            for w in spans.windows(2) {
                assert!(
                    w[1].0 >= w[0].1 - 1e-6,
                    "lane {tid} overlaps: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn emission_is_deterministic() {
        let (spec, timing) = run(vec![TaskSpec::compute(2.0); 8]);
        let a = TraceSink::enabled();
        let b = TraceSink::enabled();
        emit_stage_trace(&a, &spec, &timing, "s0", 0);
        emit_stage_trace(&b, &spec, &timing, "s0", 0);
        assert_eq!(
            a.chrome_json_filtered(ClockFilter::VirtualOnly),
            b.chrome_json_filtered(ClockFilter::VirtualOnly)
        );
    }

    #[test]
    fn pinned_tasks_land_on_their_node_lanes() {
        let tasks: Vec<TaskSpec> = (0..4).map(|_| TaskSpec::compute(1.0).pin(1)).collect();
        let (spec, timing) = run(tasks);
        let sink = TraceSink::enabled();
        emit_stage_trace(&sink, &spec, &timing, "s0", 0);
        // Node 1's lanes start at tid 2 (node 0 has 2 cores).
        for e in sink.events() {
            if matches!(e.phase, Phase::Span { .. }) {
                assert!(e.track.tid >= 2, "task on node-0 lane {}", e.track.tid);
            }
        }
    }

    #[test]
    fn disabled_sink_emits_nothing() {
        let (spec, timing) = run(vec![TaskSpec::compute(1.0); 2]);
        let sink = TraceSink::disabled();
        emit_stage_trace(&sink, &spec, &timing, "s0", 0);
        assert!(sink.events().is_empty());
    }
}
