//! Deterministic flow-level network simulation.
//!
//! The crate has three layers, each usable on its own:
//!
//! * [`queue`] — an indexed event queue ordered by `(time, seq)`: events at
//!   equal times pop in insertion order, making every simulation built on
//!   it bit-deterministic. The queue is a binary heap and stays fast at
//!   millions of events.
//! * [`topology`] — hierarchical cluster topology descriptions: `flat`
//!   (every NIC wired to a non-blocking fabric: one rack, infinite
//!   uplinks) and `rack:<racks>x<hosts>[:oversub]` (host NIC → ToR →
//!   spine, with the rack uplink/downlink capacity oversubscribed by the
//!   given factor).
//! * [`flow`] — a flow-level network: links with capacities, flows with
//!   byte counts routed over link paths, and progressive-filling max-min
//!   fair bandwidth sharing recomputed event-driven on every flow arrival
//!   and completion.
//!
//! Time is a dimensionless `f64` of seconds; bytes are `f64` so rates
//! divide exactly. Nothing in the crate consults a wall clock, a random
//! number generator, or iteration order of a hash map — two identical call
//! sequences produce bit-identical event sequences.

pub mod flow;
pub mod queue;
pub mod topology;

pub use flow::{FlowId, LinkId, Network, NetworkStats};
pub use queue::EventQueue;
pub use topology::{Topology, TopologyParseError};
