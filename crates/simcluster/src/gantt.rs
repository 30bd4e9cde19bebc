//! ASCII Gantt rendering of stage schedules.
//!
//! Turns a [`StageTiming`] into a per-node timeline so
//! load imbalance, stragglers, dispatch pacing, and co-partition pinning
//! are visible at a glance:
//!
//! ```text
//! t=0.0s .. 12.4s (124 cols, '·' idle)
//! A [############################################······] 42 tasks
//! B [#############################################·····] 44 tasks
//! D [##################################################] 12 tasks  ← straggler
//! ```
//!
//! Rendering aggregates each node's busy *core-seconds* per column, so a
//! node is `#` when all its cores are busy, mid-shade when partially busy,
//! and `·` when idle.

use crate::spec::ClusterSpec;
use crate::StageTiming;

/// Shade ramp from idle to fully busy.
const SHADES: [char; 5] = ['·', '░', '▒', '▓', '█'];

/// Renders a stage schedule as one timeline row per node.
///
/// `width` is the number of time columns (the stage span is divided
/// evenly). Returns a multi-line string; the slowest node is marked.
pub fn render(spec: &ClusterSpec, timing: &StageTiming, width: usize) -> String {
    assert!(width > 0, "need at least one column");
    let span = (timing.end - timing.start).max(1e-12);
    let col_w = span / width as f64;

    // Busy core-seconds per (node, column).
    let mut busy = vec![vec![0.0f64; width]; spec.num_nodes()];
    let mut counts = vec![0usize; spec.num_nodes()];
    let mut last_end = vec![0.0f64; spec.num_nodes()];
    for t in &timing.tasks {
        counts[t.node] += 1;
        last_end[t.node] = last_end[t.node].max(t.end);
        let s = t.start - timing.start;
        let e = t.end - timing.start;
        let first = ((s / col_w) as usize).min(width - 1);
        let last = ((e / col_w) as usize).min(width - 1);
        for (c, slot) in busy[t.node]
            .iter_mut()
            .enumerate()
            .take(last + 1)
            .skip(first)
        {
            let c_start = c as f64 * col_w;
            let c_end = c_start + col_w;
            let overlap = (e.min(c_end) - s.max(c_start)).max(0.0);
            *slot += overlap;
        }
    }

    let straggler = last_end
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(n, _)| n);

    let name_w = spec.nodes.iter().map(|n| n.name.len()).max().unwrap_or(1);
    let mut out = format!(
        "t={:.2}s .. {:.2}s ({} tasks, column = {:.3}s)\n",
        timing.start,
        timing.end,
        timing.tasks.len(),
        col_w
    );
    for (n, node) in spec.nodes.iter().enumerate() {
        let cores = node.cores as f64;
        let row: String = busy[n]
            .iter()
            .map(|&b| {
                let frac = (b / (cores * col_w)).clamp(0.0, 1.0);
                SHADES[(frac * (SHADES.len() - 1) as f64).round() as usize]
            })
            .collect();
        let marker = if Some(n) == straggler && spec.num_nodes() > 1 {
            "  <- last to finish"
        } else {
            ""
        };
        out.push_str(&format!(
            "{:>name_w$} [{row}] {} tasks{marker}\n",
            node.name, counts[n],
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::uniform_cluster;
    use crate::{Simulation, TaskSpec};

    fn run(tasks: Vec<TaskSpec>) -> (ClusterSpec, StageTiming) {
        let spec = uniform_cluster(2, 2, 1.0);
        let mut sim = Simulation::new(spec.clone());
        let timing = sim.run_stage(&tasks);
        (spec, timing)
    }

    #[test]
    fn renders_one_row_per_node() {
        let (spec, timing) = run(vec![TaskSpec::compute(2.0); 4]);
        let g = render(&spec, &timing, 40);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 nodes");
        assert!(lines[0].contains("4 tasks"));
        assert!(lines[1].starts_with("n0 ["));
        assert!(lines[2].starts_with("n1 ["));
    }

    #[test]
    fn busy_nodes_show_full_shade() {
        let (spec, timing) = run(vec![TaskSpec::compute(5.0); 4]);
        let g = render(&spec, &timing, 20);
        // All cores busy nearly the whole span → mostly full blocks.
        let fulls = g.chars().filter(|&c| c == '█').count();
        assert!(fulls > 20, "expected mostly-busy timeline, got:\n{g}");
    }

    #[test]
    fn idle_node_is_dotted() {
        // Pin everything to node 0; node 1 stays idle.
        let tasks: Vec<TaskSpec> = (0..4).map(|_| TaskSpec::compute(2.0).pin(0)).collect();
        let (spec, timing) = run(tasks);
        let g = render(&spec, &timing, 30);
        let node1_line = g.lines().nth(2).expect("node 1 row");
        assert!(node1_line.contains("0 tasks"));
        let dots = node1_line.chars().filter(|&c| c == '·').count();
        assert_eq!(dots, 30, "idle node should be all idle marks:\n{g}");
    }

    #[test]
    fn straggler_is_marked() {
        let mut tasks = vec![TaskSpec::compute(1.0).pin(0); 2];
        tasks.push(TaskSpec::compute(20.0).pin(1));
        let (spec, timing) = run(tasks);
        let g = render(&spec, &timing, 20);
        let node1_line = g.lines().nth(2).expect("node 1 row");
        assert!(node1_line.contains("last to finish"), "{g}");
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn zero_width_panics() {
        let (spec, timing) = run(vec![TaskSpec::compute(1.0)]);
        let _ = render(&spec, &timing, 0);
    }
}
