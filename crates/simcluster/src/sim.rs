//! The virtual-time cluster simulator.
//!
//! A stage is one deterministic event loop over three kinds of event —
//! the driver dispatching a task descriptor, a task finishing, and a
//! shuffle flow completing in the [`netsim`] network — and a barrier:
//! the virtual clock only advances past a stage once its slowest task
//! ends, exactly the straggler semantics that make data skew expensive
//! in the paper.
//!
//! **Placement** happens when a task is dispatched or a core frees, in
//! FIFO order over the tasks waiting: a hard pin (CHOPPER's
//! co-partition-aware scheduling) waits for its node without blocking
//! the tasks behind it; otherwise a preferred (data-local) node with a
//! free core wins outright, then the free node whose rack holds the most
//! of the task's shuffle input, then the least-loaded one, ties rotated
//! by a per-stage salt so two stages' placements do not align by
//! accident.
//!
//! **Cost** has two parts. Remote shuffle bytes become *flows*: source
//! rack uplink → destination rack downlink → destination NIC, sharing
//! every link max-min fairly with all other in-flight fetches. On
//! [`Topology::Flat`] there is one rack and the uplinks are infinite, so
//! the receiver NICs are the only contended links; on an oversubscribed
//! rack fabric the ToR uplinks congest exactly when many tasks pull
//! cross-rack at once. Everything else (`Simulation::task_cost`:
//! launch overhead, compute, disk, chunk bookkeeping, fetch-wave
//! latency) is a closed-form tail charged once the task's flows have
//! completed; it does not contend.
//!
//! Approximations, chosen deliberately:
//!
//! * A task's flows are aggregated per source rack (plus one same-rack
//!   aggregate), not per source host, bounding queue traffic at scale;
//!   past `MAX_PER_RACK_FLOWS` distinct source racks they collapse
//!   further into a single cross-rack flow through the destination's
//!   downlink. Sender-side NICs are not modeled — the receiver NIC and
//!   the rack uplinks/downlinks are the contended resources.
//! * Speculative backup copies are timed by the uncontended estimator
//!   (`Simulation::uncontended_duration`): speculation fires in the
//!   stage tail, when the network is draining.
//!
//! Determinism: every queue is `(time, seq)`-ordered, ties between a
//! stage event and a flow completion at the same instant resolve to the
//! stage event, and placement scans nodes in id order with explicit
//! tie-breaks. Identical inputs replay bit-identically.

use std::collections::VecDeque;

use netsim::{EventQueue, LinkId, Network, Topology};
use serde::Serialize;

use crate::spec::{ClusterSpec, NodeId};
use crate::task::TaskSpec;
use crate::trace::UtilTrace;

/// Above this many distinct source racks, a task's cross-rack fetches
/// collapse into one aggregate flow through the destination downlink.
const MAX_PER_RACK_FLOWS: usize = 8;

/// Where and when one task ran.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TaskTiming {
    /// Node the task executed on.
    pub node: NodeId,
    /// Virtual start time (seconds).
    pub start: f64,
    /// Virtual end time (seconds).
    pub end: f64,
}

impl TaskTiming {
    /// Task duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Timing of one simulated stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage start (virtual seconds).
    pub start: f64,
    /// Stage end — when the last task finished (the barrier).
    pub end: f64,
    /// Per-task placements and times, in submission order.
    pub tasks: Vec<TaskTiming>,
}

impl StageTiming {
    /// Stage wall time in virtual seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Duration of the slowest task.
    pub fn max_task(&self) -> f64 {
        self.tasks
            .iter()
            .map(TaskTiming::duration)
            .fold(0.0, f64::max)
    }

    /// Mean task duration (0 for an empty stage).
    pub fn mean_task(&self) -> f64 {
        if self.tasks.is_empty() {
            0.0
        } else {
            self.tasks.iter().map(TaskTiming::duration).sum::<f64>() / self.tasks.len() as f64
        }
    }
}

/// Aggregate data-movement counters across the simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IoStats {
    /// Bytes fetched over the network (remote shuffle reads).
    pub remote_bytes: u64,
    /// Bytes read from node-local storage (input blocks + local shuffle).
    pub local_read_bytes: u64,
    /// Bytes written to node-local storage.
    pub write_bytes: u64,
}

/// A deterministic virtual-time simulation of a [`ClusterSpec`].
pub struct Simulation {
    spec: ClusterSpec,
    clock: f64,
    slowdown: Vec<f64>,
    failed: Vec<bool>,
    resident_bytes: Vec<u64>,
    trace: UtilTrace,
    io: IoStats,
    stages_run: usize,
    speculation: Option<f64>,
    net_stats: netsim::NetworkStats,
    events: u64,
}

/// What one task costs on one node, split by the layer that charges it.
struct TaskCost {
    /// Seconds of launch overhead, compute, disk, chunk bookkeeping and
    /// fetch-wave latency: everything but the transfer itself.
    tail: f64,
    /// Shuffle bytes that cross the network.
    remote_bytes: u64,
    /// Input and shuffle bytes read on the node itself.
    local_bytes: u64,
}

impl Simulation {
    /// Creates a simulation with 10-second trace buckets (the paper's
    /// figures sample at tens-of-seconds granularity).
    pub fn new(spec: ClusterSpec) -> Self {
        Self::with_trace_bucket(spec, 10.0)
    }

    /// Creates a simulation with an explicit trace bucket width.
    pub fn with_trace_bucket(spec: ClusterSpec, bucket_width: f64) -> Self {
        let n = spec.num_nodes();
        let trace = UtilTrace::new(bucket_width, spec.total_cores(), spec.total_memory());
        Simulation {
            spec,
            clock: 0.0,
            slowdown: vec![1.0; n],
            failed: vec![false; n],
            resident_bytes: vec![0; n],
            trace,
            io: IoStats::default(),
            stages_run: 0,
            speculation: None,
            net_stats: netsim::NetworkStats::default(),
            events: 0,
        }
    }

    /// Enables Spark-style speculative execution: a task that runs longer
    /// than `multiplier` × the stage's median task duration gets a backup
    /// copy launched on another node once that threshold passes; the
    /// earlier finisher wins. This is the *reactive* straggler mitigation
    /// that CHOPPER's proactive partitioning competes with (cf. the
    /// paper's SkewTune discussion in Related Work).
    ///
    /// The backup's own core occupancy is not re-fed into the schedule —
    /// a deliberate approximation: speculation fires in the stage's tail,
    /// when cores are draining.
    pub fn enable_speculation(&mut self, multiplier: f64) {
        assert!(multiplier > 1.0, "speculation multiplier must exceed 1");
        self.speculation = Some(multiplier);
    }

    /// The cluster description.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Current virtual time in seconds.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Advances the clock by `dt` seconds (driver-side work between stages).
    pub fn advance(&mut self, dt: f64) {
        assert!(dt >= 0.0, "cannot rewind the clock");
        self.clock += dt;
    }

    /// Injects a persistent slow-down on a node (e.g. 2.0 = half speed).
    pub fn set_slowdown(&mut self, node: NodeId, factor: f64) {
        assert!(factor >= 1.0, "slow-down factor must be >= 1");
        self.slowdown[node] = factor;
    }

    /// Marks a node failed: no further tasks are placed on it.
    pub fn fail_node(&mut self, node: NodeId) {
        self.failed[node] = true;
        assert!(
            self.failed.iter().any(|f| !f),
            "cannot fail the last remaining node"
        );
    }

    /// Per node, whether it has failed. A failed node stays failed; this
    /// is the one record of which nodes are down.
    pub fn failed_nodes(&self) -> &[bool] {
        &self.failed
    }

    /// Sets the cached RDD bytes resident on each node (counted in the
    /// memory-utilization trace of every stage that runs while they
    /// stay). The engine copies its memory manager's per-node totals
    /// here, so the two books cannot drift.
    pub fn set_resident(&mut self, per_node_bytes: &[u64]) {
        self.resident_bytes.copy_from_slice(per_node_bytes);
    }

    /// Currently registered resident bytes per node.
    pub fn resident_bytes(&self) -> &[u64] {
        &self.resident_bytes
    }

    /// Charges a driver-coordinated disk transfer of `per_node_bytes`
    /// outside any stage (the engine's cache-spill path): the transfers
    /// run in parallel across nodes, the clock advances by the slowest
    /// one, and each node's bytes feed the disk-transaction trace that
    /// drives Fig. 14.
    pub fn charge_disk_io(&mut self, per_node_bytes: &[u64], write: bool) {
        assert_eq!(per_node_bytes.len(), self.spec.num_nodes());
        let start = self.clock;
        let mut end = start;
        for (n, &bytes) in per_node_bytes.iter().enumerate() {
            if bytes == 0 {
                continue;
            }
            let node_end = start + bytes as f64 / self.spec.nodes[n].disk_bandwidth;
            end = end.max(node_end);
            let txns = (bytes as f64 / self.spec.io_transaction_bytes as f64).ceil();
            self.trace.record_transactions(start, node_end, txns);
            if write {
                self.io.write_bytes += bytes;
            } else {
                self.io.local_read_bytes += bytes;
            }
        }
        self.clock = end;
    }

    /// Charges driver-coordinated replica transfers (`(src, dst, bytes)`)
    /// through the topology: same-rack copies contend only at the
    /// destination NIC, cross-rack copies also cross the source uplink and
    /// destination downlink. The clock advances to the last completion and
    /// the packet trace records each transfer over its actual window.
    pub fn charge_replica_transfers(&mut self, moves: &[(NodeId, NodeId, u64)]) {
        if moves.iter().all(|&(_, _, b)| b == 0) {
            return;
        }
        let start = self.clock;
        let (mut net, nic, uplink, downlink) = build_network(&self.spec);
        net.sync_to(start);
        let mut flow_move: Vec<usize> = Vec::with_capacity(moves.len());
        for (i, &(src, dst, bytes)) in moves.iter().enumerate() {
            if bytes == 0 || src == dst {
                continue;
            }
            let (sr, dr) = (self.spec.rack_of(src), self.spec.rack_of(dst));
            if sr == dr {
                net.start_flow([nic[dst]], bytes as f64);
            } else {
                net.start_flow([uplink[sr], downlink[dr], nic[dst]], bytes as f64);
            }
            flow_move.push(i);
        }
        let mut end = start;
        while let Some((t, flow)) = net.pop_completion() {
            let &(_, _, bytes) = &moves[flow_move[flow]];
            let packets = (bytes as f64 / self.spec.mtu as f64).ceil();
            self.trace
                .record_packets(start, t.max(start + 1e-9), 2.0 * packets);
            self.io.remote_bytes += bytes;
            end = end.max(t);
        }
        self.net_stats += net.stats();
        self.events += net.stats().events_processed;
        self.clock = end;
    }

    /// Cumulative data-movement counters.
    pub fn io_stats(&self) -> IoStats {
        self.io
    }

    /// Cumulative flow-network counters: flows started and completed,
    /// rate recomputations, queue traffic.
    pub fn network_stats(&self) -> netsim::NetworkStats {
        self.net_stats
    }

    /// Total discrete events processed so far (stage dispatch/completion
    /// events plus flow completions) — `fig_scale`'s `events` column,
    /// which doc-sync pins as the tractability contract of the
    /// 1000-node cells.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// The utilization trace accumulated so far.
    pub fn trace(&self) -> &UtilTrace {
        &self.trace
    }

    /// Runs one stage: dispatches, places and times every task, advances
    /// the clock to the barrier, and returns the schedule.
    ///
    /// # Panics
    /// Panics if `tasks` is empty or every node has failed.
    pub fn run_stage(&mut self, tasks: &[TaskSpec]) -> StageTiming {
        assert!(!tasks.is_empty(), "a stage needs at least one task");
        let stage_start = self.clock;
        // Each stage starts its round-robin at a different node: executor
        // resource offers arrive in arbitrary per-stage order in Spark, so
        // two stages' partition placements must not align by accident.
        let salt = self.stages_run % self.spec.num_nodes();
        self.stages_run += 1;

        let mut st = Stage::new(self, tasks, stage_start, salt);
        // The driver ships task descriptors serially; task `idx` cannot
        // launch before its dispatch slot.
        for idx in 0..tasks.len() {
            st.q.push(
                stage_start + idx as f64 * self.spec.dispatch_interval,
                Ev::Dispatch(idx),
            );
        }

        while st.ended < tasks.len() {
            let take_net = match (st.q.peek_time(), st.net.next_completion_time()) {
                // Equal instants resolve to the stage event: dispatches
                // and completions outrank flow completions, determinately.
                (Some(a), Some(b)) => b < a,
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (None, None) => unreachable!("tasks pending but no events"),
            };
            if take_net {
                let (t, flow) = st.net.pop_completion().expect("peeked completion");
                let idx = st.flow_task[flow];
                let run = &mut st.run[idx];
                run.pending_flows -= 1;
                if run.pending_flows == 0 {
                    run.net_end = t;
                    st.q.push(t + run.tail, Ev::TaskEnd(idx));
                }
            } else {
                let ev = st.q.pop().expect("peeked event");
                match ev.item {
                    Ev::Dispatch(idx) => st.ready.push_back(idx),
                    Ev::TaskEnd(idx) => st.finish_task(self, idx, ev.time),
                }
                st.try_place(self, ev.time);
            }
        }

        let Stage {
            net,
            q,
            slots,
            mut timing,
            mut stage_end,
            ..
        } = st;
        self.net_stats += net.stats();
        self.events += q.total_popped() + net.stats().events_processed;

        // Speculative execution: re-run flagged stragglers elsewhere.
        if let Some(multiplier) = self.speculation {
            stage_end = self.speculate(tasks, &mut timing, &slots, multiplier, stage_end);
        }

        // Resident (cached) memory is charged for the stage's whole span.
        let resident: u64 = self.resident_bytes.iter().sum();
        if resident > 0 && stage_end > stage_start {
            self.trace.record_memory(stage_start, stage_end, resident);
        }

        self.clock = stage_end;
        StageTiming {
            start: stage_start,
            end: stage_end,
            tasks: timing,
        }
    }

    /// Launches backup copies for tasks still running `multiplier` × the
    /// median duration after their start, and returns the new stage end.
    /// `cores` holds each core's final free-at time.
    fn speculate(
        &mut self,
        tasks: &[TaskSpec],
        timings: &mut [TaskTiming],
        cores: &[Vec<f64>],
        multiplier: f64,
        stage_end: f64,
    ) -> f64 {
        if timings.len() < 2 {
            return stage_end;
        }
        let mut durations: Vec<f64> = timings.iter().map(TaskTiming::duration).collect();
        durations.sort_by(f64::total_cmp);
        let mid = durations.len() / 2;
        let median = if durations.len().is_multiple_of(2) {
            0.5 * (durations[mid - 1] + durations[mid])
        } else {
            durations[mid]
        };
        let threshold = multiplier * median;
        if threshold <= 0.0 {
            return stage_end;
        }

        for (task, timing) in tasks.iter().zip(timings.iter_mut()) {
            if timing.duration() <= threshold {
                continue;
            }
            // The driver notices the straggler once it has exceeded the
            // threshold; the backup starts on the earliest core of another
            // live node that is free by then.
            let flagged_at = timing.start + threshold;
            let mut best: Option<(f64, usize)> = None;
            for (node, node_cores) in cores.iter().enumerate() {
                if node == timing.node || self.failed[node] {
                    continue;
                }
                let free = node_cores.iter().copied().fold(f64::INFINITY, f64::min);
                let start = free.max(flagged_at);
                if best.is_none_or(|(bs, _)| start < bs) {
                    best = Some((start, node));
                }
            }
            let Some((backup_start, backup_node)) = best else {
                continue;
            };
            let backup_end = backup_start + self.uncontended_duration(task, backup_node);
            if backup_end < timing.end {
                // The backup wins: account for its execution and cut the
                // task's effective completion.
                self.trace
                    .record_task(backup_start, backup_end, task.memory_bytes);
                *timing = TaskTiming {
                    node: backup_node,
                    start: timing.start,
                    end: backup_end,
                };
            }
        }
        timings.iter().map(|t| t.end).fold(0.0, f64::max)
    }

    /// The cost decomposition of `task` on `node`: the one place the
    /// per-task constants of [`ClusterSpec`] are applied.
    fn task_cost(&self, task: &TaskSpec, node: NodeId) -> TaskCost {
        let n = &self.spec.nodes[node];
        let speed = n.speed / self.slowdown[node];
        let (mut local_fetch, mut remote_bytes, mut remote_srcs) = (0u64, 0u64, 0usize);
        for &(src, bytes) in &task.fetches {
            if src == node {
                local_fetch += bytes;
            } else {
                remote_bytes += bytes;
                remote_srcs += 1;
            }
        }
        // Fetches from distinct sources overlap, and so do their round
        // trips: the fetcher keeps `max_concurrent_fetches` requests in
        // flight, so latency is paid once per wave of that many sources,
        // not once per source.
        let waves = remote_srcs.div_ceil(self.spec.max_concurrent_fetches.max(1));
        // Cold input reads pay disk bandwidth; local shuffle fetches are
        // freshly written map outputs served from the page cache.
        let disk = (task.local_read_bytes + task.write_bytes) as f64 / n.disk_bandwidth
            + local_fetch as f64 / self.spec.cache_bandwidth;
        let chunk = task.fetch_chunks as f64 * self.spec.fetch_chunk_overhead;
        TaskCost {
            tail: self.spec.task_launch_overhead
                + task.compute_cost / speed
                + disk
                + chunk
                + waves as f64 * n.net_latency,
            remote_bytes,
            local_bytes: task.local_read_bytes + local_fetch,
        }
    }

    /// How long `task` takes on `node` with the network to itself: its
    /// remote bytes at the full receiver-NIC rate, then the tail.
    fn uncontended_duration(&self, task: &TaskSpec, node: NodeId) -> f64 {
        let cost = self.task_cost(task, node);
        cost.remote_bytes as f64 / self.spec.nodes[node].net_bandwidth + cost.tail
    }
}

/// Builds the leaf/spine link set for a spec: one receive-direction link
/// per NIC, one uplink + one downlink per rack
/// ([`ClusterSpec::rack_link_capacities`]).
fn build_network(spec: &ClusterSpec) -> (Network, Vec<LinkId>, Vec<LinkId>, Vec<LinkId>) {
    let mut net = Network::new();
    let nic: Vec<LinkId> = spec
        .nodes
        .iter()
        .map(|n| net.add_link(n.net_bandwidth))
        .collect();
    let caps = spec.rack_link_capacities();
    let uplink: Vec<LinkId> = caps.iter().map(|&c| net.add_link(c)).collect();
    let downlink: Vec<LinkId> = caps.iter().map(|&c| net.add_link(c)).collect();
    (net, nic, uplink, downlink)
}

enum Ev {
    /// The driver ships task `idx`'s descriptor; it joins the ready queue.
    Dispatch(usize),
    /// Task `idx` finishes its closed-form tail and frees its core.
    TaskEnd(usize),
}

/// What the loop tracks about a task between its start and its end.
#[derive(Clone, Default)]
struct Running {
    slot: usize,
    pending_flows: usize,
    /// [`TaskCost::tail`], charged after the task's flows finish.
    tail: f64,
    remote_bytes: u64,
    /// Bytes behind the task's disk-transaction trace.
    txn_bytes: u64,
    /// When the task's last flow completed (packet-trace window end).
    net_end: f64,
}

/// All per-stage state of the event loop.
struct Stage<'a> {
    tasks: &'a [TaskSpec],
    topo: Topology,
    salt: usize,
    net: Network,
    nic: Vec<LinkId>,
    uplink: Vec<LinkId>,
    downlink: Vec<LinkId>,
    q: EventQueue<Ev>,
    /// Per-node core slots: free-at time, `INFINITY` while occupied.
    slots: Vec<Vec<f64>>,
    /// Tasks of this stage placed per node so far.
    assigned: Vec<usize>,
    /// Dispatched tasks waiting for a core, in dispatch order.
    ready: VecDeque<usize>,
    timing: Vec<TaskTiming>,
    run: Vec<Running>,
    /// Shuffle input bytes by task and source rack, `racks` to a task —
    /// the placement score.
    rack_bytes: Vec<u64>,
    racks: usize,
    /// A starting task's cross-rack bytes by source rack; all zero
    /// between starts.
    cross: Vec<u64>,
    /// Flow id → owning task.
    flow_task: Vec<usize>,
    ended: usize,
    stage_end: f64,
}

impl<'a> Stage<'a> {
    fn new(sim: &Simulation, tasks: &'a [TaskSpec], stage_start: f64, salt: usize) -> Self {
        let topo = sim.spec.topology;
        let (mut net, nic, uplink, downlink) = build_network(&sim.spec);
        net.sync_to(stage_start);
        let racks = topo.num_racks();
        let mut rack_bytes = vec![0u64; tasks.len() * racks];
        for (by_rack, t) in rack_bytes.chunks_exact_mut(racks).zip(tasks) {
            for &(src, bytes) in &t.fetches {
                by_rack[topo.rack_of(src)] += bytes;
            }
        }
        let unplaced = TaskTiming {
            node: 0,
            start: 0.0,
            end: 0.0,
        };
        Stage {
            tasks,
            topo,
            salt,
            net,
            nic,
            uplink,
            downlink,
            q: EventQueue::with_capacity(tasks.len() * 2),
            // All cores are free at the barrier that starts the stage.
            slots: sim
                .spec
                .nodes
                .iter()
                .map(|n| vec![stage_start; n.cores])
                .collect(),
            assigned: vec![0; sim.spec.num_nodes()],
            ready: VecDeque::new(),
            timing: vec![unplaced; tasks.len()],
            run: vec![Running::default(); tasks.len()],
            rack_bytes,
            racks,
            cross: vec![0; racks],
            flow_task: Vec::new(),
            ended: 0,
            stage_end: stage_start,
        }
    }

    /// Whether `node` has a core free at `now`.
    fn has_free_core(&self, node: NodeId, now: f64) -> bool {
        self.slots[node].iter().any(|&t| t <= now + 1e-12)
    }

    /// Topology-aware placement. `None` means the task cannot start now —
    /// for a pinned task, "its node is busy"; for anything else, "no node
    /// has a free core".
    fn pick_node(&self, sim: &Simulation, idx: usize, now: f64) -> Option<NodeId> {
        let task = &self.tasks[idx];
        let n = sim.spec.num_nodes();
        if let Some(pin) = task.pinned_node {
            if !sim.failed[pin] {
                return self.has_free_core(pin, now).then_some(pin);
            }
        }
        // Data-local preference: a preferred node with a free core wins
        // outright; a busy one is not worth stalling for while the
        // network is shared.
        for &p in &task.preferred_nodes {
            if p < n && !sim.failed[p] && self.has_free_core(p, now) {
                return Some(p);
            }
        }
        // Otherwise: the free node whose rack holds the most of this
        // task's shuffle input — cross-rack bytes are the contended
        // resource — then the least-loaded by fraction of this stage's
        // tasks already assigned per core (Spark's round-robin resource
        // offers), then salt-rotated id.
        let mut best: Option<(u64, f64, usize, NodeId)> = None;
        for node in 0..n {
            if sim.failed[node] || !self.has_free_core(node, now) {
                continue;
            }
            let score = self.rack_bytes[idx * self.racks + self.topo.rack_of(node)];
            let load = self.assigned[node] as f64 / sim.spec.nodes[node].cores as f64;
            let rotated = (node + n - self.salt) % n;
            let better = match best {
                None => true,
                Some((bs, bl, br, _)) => {
                    score > bs
                        || (score == bs
                            && (load < bl - 1e-12 || (load < bl + 1e-12 && rotated < br)))
                }
            };
            if better {
                best = Some((score, load, rotated, node));
            }
        }
        best.map(|(_, _, _, node)| node)
    }

    /// Drains the ready queue in FIFO order, skipping (but keeping)
    /// pinned tasks whose node is busy; stops at the first task that
    /// cannot place because the whole cluster is out of cores.
    fn try_place(&mut self, sim: &mut Simulation, now: f64) {
        let mut i = 0;
        while i < self.ready.len() {
            let idx = self.ready[i];
            match self.pick_node(sim, idx, now) {
                Some(node) => {
                    self.ready.remove(i);
                    self.start_task(sim, idx, node, now);
                }
                None => {
                    let pinned_wait = self.tasks[idx].pinned_node.is_some_and(|p| !sim.failed[p]);
                    if pinned_wait {
                        i += 1; // waiting for its pin; let others pass
                    } else {
                        break; // no free core anywhere — nobody can place
                    }
                }
            }
        }
    }

    fn start_task(&mut self, sim: &mut Simulation, idx: usize, node: NodeId, now: f64) {
        let task = &self.tasks[idx];
        self.assigned[node] += 1;
        let slot = self.slots[node]
            .iter()
            .position(|&t| t <= now + 1e-12)
            .expect("pick_node guarantees a free core");
        self.slots[node][slot] = f64::INFINITY;
        self.timing[idx].node = node;
        self.timing[idx].start = now;

        let cost = sim.task_cost(task, node);
        sim.io.remote_bytes += cost.remote_bytes;
        sim.io.local_read_bytes += cost.local_bytes;
        sim.io.write_bytes += task.write_bytes;
        self.run[idx] = Running {
            slot,
            pending_flows: 0,
            tail: cost.tail,
            remote_bytes: cost.remote_bytes,
            txn_bytes: cost.local_bytes + task.write_bytes,
            net_end: now,
        };

        // Launch the task's flows: one same-rack aggregate through the
        // receiver NIC, one per source rack through uplink → downlink →
        // NIC, collapsing to a single cross-rack aggregate when the rack
        // fan-in is large.
        let my_rack = self.topo.rack_of(node);
        let mut same_rack = 0u64;
        let mut cross = std::mem::take(&mut self.cross);
        for &(src, bytes) in task.fetches.iter().filter(|&&(src, _)| src != node) {
            let r = self.topo.rack_of(src);
            if r == my_rack {
                same_rack += bytes;
            } else {
                cross[r] += bytes;
            }
        }
        self.net.sync_to(now);
        if same_rack > 0 {
            self.start_flow(idx, &[self.nic[node]], same_rack);
        }
        if cross.iter().filter(|&&b| b > 0).count() > MAX_PER_RACK_FLOWS {
            let path = [self.downlink[my_rack], self.nic[node]];
            self.start_flow(idx, &path, cross.iter().sum());
        } else {
            for (r, &bytes) in cross.iter().enumerate() {
                if bytes > 0 {
                    let path = [self.uplink[r], self.downlink[my_rack], self.nic[node]];
                    self.start_flow(idx, &path, bytes);
                }
            }
        }
        cross.fill(0);
        self.cross = cross;
        if self.run[idx].pending_flows == 0 {
            self.q.push(now + cost.tail, Ev::TaskEnd(idx));
        }
    }

    fn start_flow(&mut self, idx: usize, path: &[LinkId], bytes: u64) {
        self.net.start_flow(path, bytes as f64);
        self.flow_task.push(idx);
        self.run[idx].pending_flows += 1;
    }

    fn finish_task(&mut self, sim: &mut Simulation, idx: usize, now: f64) {
        let TaskTiming { node, start, .. } = self.timing[idx];
        let run = &self.run[idx];
        self.timing[idx].end = now;
        self.slots[node][run.slot] = now;
        self.ended += 1;
        self.stage_end = self.stage_end.max(now);

        // Tracing: CPU + task memory over the span, packets over the
        // fetch window, disk transactions over the whole task.
        sim.trace
            .record_task(start, now, self.tasks[idx].memory_bytes);
        if run.remote_bytes > 0 {
            let packets = (run.remote_bytes as f64 / sim.spec.mtu as f64).ceil();
            // Received and transmitted both count in Fig. 13.
            sim.trace
                .record_packets(start, run.net_end.max(start + 1e-9), 2.0 * packets);
        }
        if run.txn_bytes > 0 {
            let txns = (run.txn_bytes as f64 / sim.spec.io_transaction_bytes as f64).ceil();
            sim.trace.record_transactions(start, now, txns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{paper_cluster, uniform_cluster};

    fn two_node_cluster() -> ClusterSpec {
        uniform_cluster(2, 2, 1.0) // 2 nodes x 2 cores, speed 1.0
    }

    fn racked(nodes: usize, cores: usize, racks: usize, hosts: usize, oversub: f64) -> Simulation {
        Simulation::new(
            uniform_cluster(nodes, cores, 1.0).with_topology(Topology::Rack {
                racks,
                hosts,
                oversub,
            }),
        )
    }

    #[test]
    fn single_task_duration_includes_overhead() {
        let spec = two_node_cluster();
        let overhead = spec.task_launch_overhead;
        let mut sim = Simulation::new(spec);
        let st = sim.run_stage(&[TaskSpec::compute(10.0)]);
        assert!((st.duration() - (10.0 + overhead)).abs() < 1e-9);
        assert!((sim.clock() - st.end).abs() < 1e-12);
    }

    #[test]
    fn tasks_fill_all_cores_before_queueing() {
        let mut sim = Simulation::new(two_node_cluster());
        // 4 cores total; 4 equal tasks should run in one wave. The last
        // task starts 3 dispatch intervals after the stage opens.
        let tasks = vec![TaskSpec::compute(5.0); 4];
        let st = sim.run_stage(&tasks);
        let overhead = sim.spec().task_launch_overhead;
        let dispatch = sim.spec().dispatch_interval;
        assert!((st.duration() - (5.0 + overhead + 3.0 * dispatch)).abs() < 1e-9);
        // A fifth task forces a second wave.
        let mut sim = Simulation::new(two_node_cluster());
        let tasks = vec![TaskSpec::compute(5.0); 5];
        let st = sim.run_stage(&tasks);
        assert!((st.duration() - 2.0 * (5.0 + overhead)).abs() < 2e-2);
    }

    #[test]
    fn short_tasks_spread_across_nodes() {
        // With dispatch pacing and short tasks, placement must still
        // round-robin across nodes rather than piling onto node 0.
        let mut sim = Simulation::new(two_node_cluster());
        let tasks = vec![TaskSpec::compute(0.001); 40];
        let st = sim.run_stage(&tasks);
        let on_node0 = st.tasks.iter().filter(|t| t.node == 0).count();
        assert!(
            (15..=25).contains(&on_node0),
            "expected balanced spread, node0 got {on_node0}/40"
        );
    }

    #[test]
    fn stage_barrier_waits_for_straggler() {
        let mut sim = Simulation::new(two_node_cluster());
        let mut tasks = vec![TaskSpec::compute(1.0); 3];
        tasks.push(TaskSpec::compute(50.0)); // straggler
        let st = sim.run_stage(&tasks);
        assert!(st.duration() > 50.0);
        assert!(st.max_task() > 25.0 * st.mean_task() / 13.0); // clearly skewed
    }

    #[test]
    fn faster_nodes_finish_sooner() {
        let mut spec = uniform_cluster(2, 1, 1.0);
        spec.nodes[1].speed = 2.0;
        let mut sim = Simulation::new(spec);
        let st = sim.run_stage(&[
            TaskSpec::compute(10.0).pin(0),
            TaskSpec::compute(10.0).pin(1),
        ]);
        assert!(st.tasks[0].duration() > st.tasks[1].duration() * 1.9);
    }

    #[test]
    fn pinning_overrides_load_balance() {
        let mut sim = Simulation::new(two_node_cluster());
        let tasks = vec![
            TaskSpec::compute(1.0).pin(1),
            TaskSpec::compute(1.0).pin(1),
            TaskSpec::compute(1.0).pin(1),
        ];
        let st = sim.run_stage(&tasks);
        assert!(st.tasks.iter().all(|t| t.node == 1));
    }

    #[test]
    fn preferred_node_with_a_free_core_wins_outright() {
        // Load balancing alone would start at the salt-rotated node 0.
        let mut sim = Simulation::new(two_node_cluster());
        let st = sim.run_stage(&[TaskSpec::compute(1.0).prefer(1)]);
        assert_eq!(st.tasks[0].node, 1);

        // A busy preference is not waited for: with both of node 1's
        // cores pinned down, the task starts on node 0 at its dispatch
        // slot instead of queueing behind them.
        let mut sim = Simulation::new(two_node_cluster());
        let dispatch = sim.spec().dispatch_interval;
        let st = sim.run_stage(&[
            TaskSpec::compute(5.0).pin(1),
            TaskSpec::compute(5.0).pin(1),
            TaskSpec::compute(1.0).prefer(1),
        ]);
        assert_eq!(st.tasks[2].node, 0);
        assert!((st.tasks[2].start - 2.0 * dispatch).abs() < 1e-12);
    }

    #[test]
    fn remote_fetch_costs_network_time() {
        let spec = two_node_cluster();
        let bw = spec.nodes[0].net_bandwidth;
        let mut sim = Simulation::new(spec);
        let bytes = (bw * 2.0) as u64; // two seconds of transfer
        let t = TaskSpec {
            compute_cost: 1.0,
            fetches: vec![(1, bytes)],
            ..TaskSpec::default()
        };
        let st = sim.run_stage(&[t.clone().pin(0)]);
        assert!(
            st.duration() > 3.0,
            "1s compute + ~2s network, got {}",
            st.duration()
        );
        assert_eq!(sim.io_stats().remote_bytes, bytes);

        // The same fetch from the task's own node is a (much faster) disk read.
        let mut sim2 = Simulation::new(two_node_cluster());
        let st2 = sim2.run_stage(&[t.pin(1)]);
        assert!(st2.duration() < st.duration());
        assert_eq!(sim2.io_stats().remote_bytes, 0);
        assert_eq!(sim2.io_stats().local_read_bytes, bytes);
    }

    #[test]
    fn fetch_latency_is_charged_per_wave_not_per_source() {
        // A reduce task fetching from many map outputs keeps
        // `max_concurrent_fetches` requests in flight: 23 sources at a
        // concurrency of 5 cost ceil(23/5) = 5 round trips, not 23.
        let spec = uniform_cluster(24, 2, 1.0);
        let latency = spec.nodes[0].net_latency;
        let bw = spec.nodes[0].net_bandwidth;
        let overhead = spec.task_launch_overhead;
        let concurrency = spec.max_concurrent_fetches;
        assert_eq!(concurrency, 5);
        let srcs = 23usize;
        let per_src: u64 = 1_000_000;
        let t = TaskSpec {
            fetches: (1..=srcs).map(|s| (s, per_src)).collect(),
            ..TaskSpec::default()
        };
        let mut sim = Simulation::new(spec);
        let st = sim.run_stage(&[t.pin(0)]);
        let waves = srcs.div_ceil(concurrency); // 5
        let expect = overhead + (srcs as u64 * per_src) as f64 / bw + waves as f64 * latency;
        assert!(
            (st.duration() - expect).abs() < 1e-9,
            "got {}, want {expect} ({waves} latency waves)",
            st.duration()
        );
        // The old per-source charge would be visibly larger.
        let old = overhead + (srcs as u64 * per_src) as f64 / bw + srcs as f64 * latency;
        assert!(st.duration() < old - 10.0 * latency);
    }

    #[test]
    fn failed_node_receives_no_tasks() {
        let mut sim = Simulation::new(two_node_cluster());
        sim.fail_node(0);
        let st = sim.run_stage(&vec![TaskSpec::compute(1.0); 6]);
        assert!(st.tasks.iter().all(|t| t.node == 1));
    }

    #[test]
    fn pinned_task_on_failed_node_falls_back() {
        let mut sim = Simulation::new(two_node_cluster());
        sim.fail_node(1);
        let st = sim.run_stage(&[TaskSpec::compute(1.0).pin(1)]);
        assert_eq!(st.tasks[0].node, 0);
    }

    #[test]
    #[should_panic(expected = "last remaining node")]
    fn cannot_fail_every_node() {
        let mut sim = Simulation::new(two_node_cluster());
        sim.fail_node(0);
        sim.fail_node(1);
    }

    #[test]
    fn slowdown_stretches_tasks() {
        let mut sim = Simulation::new(two_node_cluster());
        sim.set_slowdown(0, 4.0);
        let st = sim.run_stage(&[TaskSpec::compute(8.0).pin(0)]);
        assert!(st.duration() > 32.0, "8 units at quarter speed");
    }

    #[test]
    fn clock_accumulates_across_stages() {
        let mut sim = Simulation::new(two_node_cluster());
        let s1 = sim.run_stage(&[TaskSpec::compute(2.0)]);
        sim.advance(1.0);
        let s2 = sim.run_stage(&[TaskSpec::compute(2.0)]);
        assert!(s2.start >= s1.end + 1.0 - 1e-12);
    }

    #[test]
    fn paper_cluster_heterogeneity_creates_imbalance() {
        // With one task per core, the 2.0 GHz nodes finish later than the
        // 2.3 GHz ones.
        let mut sim = Simulation::new(paper_cluster());
        let tasks = vec![TaskSpec::compute(100.0); 112];
        let st = sim.run_stage(&tasks);
        let slow = st
            .tasks
            .iter()
            .filter(|t| t.node <= 2)
            .map(TaskTiming::duration)
            .fold(0.0, f64::max);
        let fast = st
            .tasks
            .iter()
            .filter(|t| t.node >= 3)
            .map(TaskTiming::duration)
            .fold(0.0, f64::max);
        assert!(slow > fast, "AMD nodes are slower per core");
    }

    #[test]
    fn trace_records_cpu_activity() {
        let mut sim = Simulation::with_trace_bucket(two_node_cluster(), 1.0);
        sim.run_stage(&vec![TaskSpec::compute(2.0); 4]);
        let pts = sim.trace().points();
        assert!(!pts.is_empty());
        assert!(pts[0].cpu_pct > 90.0, "all four cores busy in bucket 0");
    }

    #[test]
    fn resident_memory_shows_in_trace() {
        let mut sim = Simulation::with_trace_bucket(two_node_cluster(), 1.0);
        let total_mem = sim.spec().total_memory();
        sim.set_resident(&[total_mem / 2, 0]);
        sim.run_stage(&[TaskSpec::compute(2.0)]);
        let pts = sim.trace().points();
        assert!(pts[0].mem_pct > 45.0, "half the cluster memory is cached");
    }

    #[test]
    fn more_tasks_mean_more_overhead() {
        // Same total work split into many tiny tasks takes longer in
        // aggregate because of the per-task launch overhead — the effect
        // behind the "too many partitions" regime of Fig. 3.
        let total_work = 100.0;
        let run = |num_tasks: usize| {
            let mut sim = Simulation::new(uniform_cluster(1, 4, 1.0));
            let tasks = vec![TaskSpec::compute(total_work / num_tasks as f64); num_tasks];
            sim.run_stage(&tasks).duration()
        };
        assert!(run(4000) > run(40));
    }

    #[test]
    fn speculation_rescues_a_slow_node_straggler() {
        // One node is 10x degraded; a task landing there straggles. With
        // speculation, a backup on a healthy node cuts the stage short.
        let run = |speculate: bool| {
            let mut sim = Simulation::new(two_node_cluster());
            sim.set_slowdown(0, 10.0);
            if speculate {
                sim.enable_speculation(1.5);
            }
            // Enough tasks that node 0 receives some.
            let tasks = vec![TaskSpec::compute(10.0); 4];
            sim.run_stage(&tasks).duration()
        };
        let plain = run(false);
        let rescued = run(true);
        // The backup can only start once the straggler is *detected*
        // (threshold × median into its run), so the saving is the tail
        // beyond detection plus the healthy re-run — not the whole task.
        assert!(
            rescued < plain - 5.0,
            "speculation should cut the straggler: {rescued} vs {plain}"
        );
    }

    #[test]
    fn speculation_never_slows_a_balanced_stage() {
        let run = |speculate: bool| {
            let mut sim = Simulation::new(two_node_cluster());
            if speculate {
                sim.enable_speculation(1.5);
            }
            sim.run_stage(&vec![TaskSpec::compute(5.0); 4]).duration()
        };
        assert!(
            (run(true) - run(false)).abs() < 1e-12,
            "no stragglers, no change"
        );
    }

    #[test]
    fn speculation_cannot_help_inherently_big_tasks_much() {
        // A task that is big because its *partition* is big is just as big
        // on the backup node — the paper's argument for fixing partitioning
        // proactively instead of reacting.
        let mut sim = Simulation::new(two_node_cluster());
        sim.enable_speculation(1.5);
        let mut tasks = vec![TaskSpec::compute(1.0); 3];
        tasks.push(TaskSpec::compute(50.0)); // a genuinely fat partition
        let st = sim.run_stage(&tasks);
        assert!(
            st.duration() > 50.0,
            "the fat partition still defines the barrier"
        );
    }

    #[test]
    #[should_panic(expected = "multiplier must exceed 1")]
    fn speculation_rejects_bad_multiplier() {
        let mut sim = Simulation::new(two_node_cluster());
        sim.enable_speculation(1.0);
    }

    #[test]
    fn determinism_identical_runs_identical_schedules() {
        let mk = || {
            let mut sim = Simulation::new(paper_cluster());
            let tasks: Vec<TaskSpec> = (0..300)
                .map(|i| TaskSpec::compute(1.0 + (i % 7) as f64))
                .collect();
            sim.run_stage(&tasks)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn flat_is_the_one_rack_topology() {
        // `Flat` and `rack:1xN:1` build the same NICs and never route a
        // byte over an uplink, so contended stages agree bit for bit —
        // schedule, counters, event count and utilization trace.
        let run = |topology: Topology| {
            let mut sim =
                Simulation::with_trace_bucket(paper_cluster().with_topology(topology), 1.0);
            let tasks: Vec<TaskSpec> = (0..300)
                .map(|i| TaskSpec {
                    compute_cost: 0.2 + (i % 7) as f64 * 0.1,
                    fetches: (0..5)
                        .map(|s| (s, 2_000_000 + (i * s) as u64 * 999))
                        .collect(),
                    write_bytes: 300_000,
                    ..TaskSpec::default()
                })
                .collect();
            let st = (sim.run_stage(&tasks), sim.run_stage(&tasks));
            sim.charge_replica_transfers(&[(0, 3, 5_000_000), (1, 3, 7_000_000)]);
            let stats = sim.network_stats();
            (
                st,
                sim.clock().to_bits(),
                sim.io_stats(),
                sim.events_processed(),
                stats.flows_completed,
                format!("{:?}", sim.trace().points()),
            )
        };
        let flat = run(Topology::Flat);
        let one_rack = run(Topology::Rack {
            racks: 1,
            hosts: 5,
            oversub: 1.0,
        });
        assert_eq!(flat, one_rack);
        assert!(flat.4 > 0, "flat fetches are flows too");
    }

    #[test]
    fn uncontended_fetch_runs_at_the_receiver_nic_rate() {
        // One task, one remote fetch, nobody else on the wire:
        // `overhead + bytes/NIC + latency`.
        let spec = two_node_cluster();
        let bw = spec.nodes[0].net_bandwidth;
        let expect = spec.task_launch_overhead + 2.0 + spec.nodes[0].net_latency;
        let t = TaskSpec {
            fetches: vec![(1, (2.0 * bw) as u64)],
            ..TaskSpec::default()
        }
        .pin(0);
        let mut sim = Simulation::new(spec);
        let got = sim.run_stage(std::slice::from_ref(&t)).duration();
        assert!((got - expect).abs() < 1e-9, "got {got}, want {expect}");
        assert_eq!(sim.network_stats().flows_completed, 1);
        assert!(sim.events_processed() > 0);
    }

    #[test]
    fn concurrent_fetches_share_the_receiver_nic() {
        // Two tasks on one node each pull one NIC-second from the other
        // node: sharing the receiver NIC max-min fairly, both transfers
        // take two seconds.
        let spec = two_node_cluster();
        let bytes = spec.nodes[0].net_bandwidth as u64;
        let t = TaskSpec {
            fetches: vec![(1, bytes)],
            ..TaskSpec::default()
        }
        .pin(0);
        let mut sim = Simulation::new(spec);
        let st = sim.run_stage(&[t.clone(), t]);
        assert!(
            st.tasks[0].duration() > 1.9,
            "got {}",
            st.tasks[0].duration()
        );
        assert!(st.duration() < 2.1, "got {}", st.duration());
    }

    #[test]
    fn oversubscribed_uplink_throttles_cross_rack_stages() {
        // Two reduce tasks in rack 1, each pulling from both rack-0 hosts.
        // At oversub 4 the shared uplink carries half a NIC, so the stage
        // runs ~4x longer than at full bisection.
        let bw = uniform_cluster(1, 1, 1.0).nodes[0].net_bandwidth;
        let bytes = bw as u64; // one NIC-second per source
        let tasks: Vec<TaskSpec> = [2usize, 3]
            .iter()
            .map(|&dst| {
                TaskSpec {
                    fetches: vec![(0, bytes), (1, bytes)],
                    ..TaskSpec::default()
                }
                .pin(dst)
            })
            .collect();
        let fast = racked(4, 1, 2, 2, 1.0).run_stage(&tasks).duration();
        let slow = racked(4, 1, 2, 2, 4.0).run_stage(&tasks).duration();
        assert!(
            slow > 3.0 * fast,
            "oversub 4 should be ~4x slower: {slow} vs {fast}"
        );
        // Transfer math: 2 NIC-seconds of bytes per task, two tasks on an
        // uplink of 2·NIC/4 → 8 seconds of transfer at oversub 4.
        assert!(
            (slow - fast - 6.0).abs() < 0.1,
            "got slow={slow} fast={fast}"
        );
    }

    #[test]
    fn placement_prefers_the_rack_holding_the_shuffle_input() {
        // All of the task's input sits in rack 0; with free cores
        // everywhere the scheduler must not send it cross-rack.
        let mut sim = racked(6, 2, 3, 2, 4.0);
        let t = TaskSpec {
            fetches: vec![(0, 1 << 20), (1, 1 << 20)],
            ..TaskSpec::default()
        };
        let st = sim.run_stage(&[t]);
        assert!(
            st.tasks[0].node < 2,
            "placed on node {} outside rack 0",
            st.tasks[0].node
        );
    }

    #[test]
    fn contended_stages_replay_bit_identically() {
        let run = || {
            let mut sim = racked(8, 2, 4, 2, 4.0);
            let tasks: Vec<TaskSpec> = (0..24)
                .map(|i| TaskSpec {
                    compute_cost: 0.5 + (i % 5) as f64 * 0.3,
                    fetches: vec![((i * 3) % 8, 1_000_000 + i as u64 * 7_000)],
                    write_bytes: 500_000,
                    ..TaskSpec::default()
                })
                .collect();
            let a = sim.run_stage(&tasks);
            let b = sim.run_stage(&tasks);
            (a, b, sim.events_processed())
        };
        let (a1, b1, e1) = run();
        let (a2, b2, e2) = run();
        assert_eq!(e1, e2);
        for (x, y) in [(a1, a2), (b1, b2)] {
            assert_eq!(x.end.to_bits(), y.end.to_bits());
            for (tx, ty) in x.tasks.iter().zip(&y.tasks) {
                assert_eq!(tx.node, ty.node);
                assert_eq!(tx.start.to_bits(), ty.start.to_bits());
                assert_eq!(tx.end.to_bits(), ty.end.to_bits());
            }
        }
    }

    #[test]
    fn pinned_tasks_wait_for_their_node_without_blocking_others() {
        // Node 0 has one core; two tasks pinned there must serialize while
        // an unpinned task slips past to another node.
        let mut sim = racked(4, 1, 2, 2, 1.0);
        let tasks = vec![
            TaskSpec::compute(2.0).pin(0),
            TaskSpec::compute(2.0).pin(0),
            TaskSpec::compute(1.0),
        ];
        let st = sim.run_stage(&tasks);
        assert_eq!(st.tasks[0].node, 0);
        assert_eq!(st.tasks[1].node, 0);
        assert!(st.tasks[1].start >= st.tasks[0].end - 1e-9, "serialized");
        assert_ne!(st.tasks[2].node, 0, "unpinned task skipped ahead");
        assert!(st.tasks[2].end < st.tasks[1].end);
    }

    #[test]
    fn replica_transfers_contend_on_the_uplink() {
        // Two same-source-rack transfers share one uplink; clock advances
        // by the max-min completion, not the naive per-NIC time.
        let mut sim = racked(4, 1, 2, 2, 2.0);
        let bw = sim.spec().nodes[0].net_bandwidth;
        let uplink = 2.0 * bw / 2.0; // hosts × NIC / oversub = one NIC
        let bytes = bw as u64;
        let t0 = sim.clock();
        sim.charge_replica_transfers(&[(0, 2, bytes), (1, 3, bytes)]);
        // 2 NIC-seconds of bytes through a one-NIC uplink: 2 seconds.
        let took = sim.clock() - t0;
        let expect = 2.0 * bytes as f64 / uplink;
        assert!((took - expect).abs() < 1e-9, "took {took}, want {expect}");
        assert_eq!(sim.io_stats().remote_bytes, 2 * bytes);
        // Same-node and zero-byte moves are free.
        let t1 = sim.clock();
        sim.charge_replica_transfers(&[(0, 0, 123), (1, 2, 0)]);
        assert_eq!(sim.clock(), t1);
    }

    #[test]
    fn speculation_rescues_stragglers_on_a_rack_fabric() {
        let mut sim = racked(4, 2, 2, 2, 1.0);
        sim.set_slowdown(0, 10.0);
        sim.enable_speculation(1.5);
        let tasks: Vec<TaskSpec> = (0..8).map(|_| TaskSpec::compute(5.0)).collect();
        let st = sim.run_stage(&tasks);
        // The straggling copies on node 0 must have been rescued: no task
        // ends anywhere near the 10x-slowed duration.
        assert!(
            st.max_task() < 25.0,
            "straggler not rescued: {}",
            st.max_task()
        );
    }
}
