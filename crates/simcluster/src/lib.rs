//! Deterministic discrete-event simulation of a heterogeneous compute
//! cluster.
//!
//! The CHOPPER paper evaluates on a 6-node heterogeneous cluster (three
//! 32-core AMD nodes on 10 GbE, two 8-core Intel nodes on 1 GbE, plus a
//! master). This crate reproduces that testbed — and arbitrary other
//! topologies — as a virtual-time simulator:
//!
//! * [`spec`] — node and cluster descriptions plus the paper's testbed as a
//!   ready-made preset ([`spec::paper_cluster`]),
//! * [`task`] — the task cost descriptor the engine submits (compute units,
//!   local input bytes, per-source shuffle fetches, output bytes, locality
//!   preferences and co-partition pins),
//! * [`sim`] — the simulator proper: one event-driven stage scheduler
//!   (serial driver dispatch, FIFO slot assignment with locality
//!   preference, shuffle fetches as `netsim` flows, stage barriers),
//!   virtual clock, failure/slow-down injection,
//! * [`trace`] — bucketed utilization time series (CPU %, memory %,
//!   packets/s, disk transactions/s) backing the paper's Figures 11–14.
//!
//! Everything is deterministic: identical inputs produce identical schedules
//! and identical traces, which makes every experiment in the reproduction
//! exactly repeatable.

pub mod perfetto;
pub mod sim;
pub mod spec;
pub mod task;
pub mod trace;

pub use netsim::{Topology, TopologyParseError};
pub use perfetto::emit_stage_trace;
pub use sim::{Simulation, StageTiming, TaskTiming};
pub use spec::{paper_cluster, uniform_cluster, ClusterSpec, NodeId, NodeSpec};
pub use task::TaskSpec;
pub use trace::{TracePoint, UtilTrace};
