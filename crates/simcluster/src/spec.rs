//! Cluster topology descriptions.

use netsim::Topology;
use serde::{Deserialize, Serialize};

/// Index of a node within a [`ClusterSpec`].
pub type NodeId = usize;

/// Description of a single worker node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Human-readable name ("A".."F" for the paper cluster).
    pub name: String,
    /// Number of executor core slots (tasks that can run concurrently).
    pub cores: usize,
    /// Relative per-core speed; compute cost units are divided by this.
    /// The paper cluster uses the clock frequency in GHz.
    pub speed: f64,
    /// Executor memory in bytes (paper: 40 GB per executor).
    pub memory_bytes: u64,
    /// NIC bandwidth in bytes/second.
    pub net_bandwidth: f64,
    /// One-way network latency to any other node, in seconds.
    pub net_latency: f64,
    /// Local disk bandwidth in bytes/second (HDFS reads, shuffle spills).
    pub disk_bandwidth: f64,
}

impl NodeSpec {
    /// Convenience constructor with the defaults shared by all presets.
    pub fn new(name: &str, cores: usize, speed_ghz: f64, mem_gb: u64, net_gbps: f64) -> Self {
        NodeSpec {
            name: name.to_string(),
            cores,
            speed: speed_ghz,
            memory_bytes: mem_gb * GB,
            net_bandwidth: net_gbps * 1e9 / 8.0,
            net_latency: 100e-6,
            disk_bandwidth: 200e6,
        }
    }
}

const GB: u64 = 1024 * 1024 * 1024;

/// A whole cluster: an ordered list of worker nodes.
///
/// The master node is not modeled explicitly — driver-side overheads are
/// charged through [`crate::Simulation::advance`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Worker nodes; `NodeId` indexes into this vector.
    pub nodes: Vec<NodeSpec>,
    /// Fixed per-task launch overhead in seconds (scheduling +
    /// serialization). This is the term that makes "too many partitions"
    /// expensive.
    pub task_launch_overhead: f64,
    /// Network MTU in bytes, used to convert transferred bytes into the
    /// packet counts of Fig. 13.
    pub mtu: u64,
    /// Storage block size in bytes, used to convert I/O volume into the disk
    /// transaction counts of Fig. 14.
    pub io_transaction_bytes: u64,
    /// Bandwidth of node-local shuffle reads in bytes/second. Map outputs
    /// are freshly written and served from the OS page cache, so this is
    /// much higher than cold-disk bandwidth — it is what makes co-located
    /// (co-partitioned) shuffle reads cheaper than any network fetch.
    pub cache_bandwidth: f64,
    /// Fixed cost per fetched map-output chunk, in seconds. A reduce task
    /// fetches one chunk per map task, so this term grows with the
    /// *producer* stage's partition count — the mechanism that makes very
    /// large partition counts expensive (the paper's 2000-partition case).
    pub fetch_chunk_overhead: f64,
    /// Serial driver dispatch interval, in seconds: task `i` of a stage
    /// cannot launch before `stage_start + i × dispatch_interval`, because
    /// the driver serializes and ships task descriptors one at a time.
    /// This is the second mechanism behind the 2000-partition blowup —
    /// with thousands of short tasks, the driver becomes the bottleneck.
    pub dispatch_interval: f64,
    /// Network topology: how the node NICs are grouped behind rack
    /// uplinks in the flow network that carries shuffle fetches and
    /// replica transfers. [`Topology::Flat`] (the default) is one rack on
    /// a non-blocking fabric — the receiver NICs are the only contended
    /// links; a rack topology adds oversubscribed ToR uplinks.
    #[serde(default)]
    pub topology: Topology,
    /// How many map outputs a reduce task fetches concurrently (Spark's
    /// five parallel fetch requests). Round-trip latency is charged once
    /// per *wave* of this many sources, not once per source.
    #[serde(default = "default_max_concurrent_fetches")]
    pub max_concurrent_fetches: usize,
}

fn default_max_concurrent_fetches() -> usize {
    5
}

impl ClusterSpec {
    /// Builds a spec from nodes with default overhead constants.
    pub fn new(nodes: Vec<NodeSpec>) -> Self {
        assert!(!nodes.is_empty(), "a cluster needs at least one worker");
        ClusterSpec {
            nodes,
            task_launch_overhead: 0.015,
            mtu: 1500,
            io_transaction_bytes: 64 * 1024,
            cache_bandwidth: 4e9,
            fetch_chunk_overhead: 1e-3,
            dispatch_interval: 8e-3,
            topology: Topology::Flat,
            max_concurrent_fetches: default_max_concurrent_fetches(),
        }
    }

    /// Replaces the topology, validating that the rack grid is big enough
    /// for the node count.
    ///
    /// # Panics
    /// Panics when the grid has fewer slots than the cluster has nodes.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        assert!(
            topology.covers(self.nodes.len()),
            "topology {topology} has no room for {} nodes",
            self.nodes.len()
        );
        self.topology = topology;
        self
    }

    /// Total executor core slots across the cluster.
    pub fn total_cores(&self) -> usize {
        self.nodes.iter().map(|n| n.cores).sum()
    }

    /// Total executor memory across the cluster.
    pub fn total_memory(&self) -> u64 {
        self.nodes.iter().map(|n| n.memory_bytes).sum()
    }

    /// Number of worker nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The rack a node lives in (always 0 when flat).
    pub fn rack_of(&self, node: NodeId) -> usize {
        self.topology.rack_of(node)
    }

    /// Capacity in bytes/s of each rack's uplink (and downlink) in the
    /// flow network: `hosts × fastest NIC in the rack / oversub`, infinite
    /// for an empty rack and on a flat fabric.
    pub fn rack_link_capacities(&self) -> Vec<f64> {
        let mut fastest = vec![0.0f64; self.topology.num_racks()];
        for (i, n) in self.nodes.iter().enumerate() {
            let r = self.rack_of(i);
            fastest[r] = fastest[r].max(n.net_bandwidth);
        }
        fastest
            .iter()
            .map(|&nic| match self.topology.uplink_capacity(nic) {
                c if c > 0.0 => c,
                _ => f64::INFINITY,
            })
            .collect()
    }

    /// The bandwidth a shuffle fetch can realistically count on when the
    /// whole cluster fetches at once, read off the flow network's links:
    /// the slowest NIC, or a host's even share of its rack's uplink when
    /// that is tighter. This is what the optimizer uses to judge whether
    /// a stage's shuffle volume is significant (Eq. 3's `s/bw/t0` term).
    pub fn effective_shuffle_bandwidth(&self) -> f64 {
        let mut hosts = vec![0usize; self.topology.num_racks()];
        for i in 0..self.nodes.len() {
            hosts[self.rack_of(i)] += 1;
        }
        let uplink_shares = self
            .rack_link_capacities()
            .into_iter()
            .zip(hosts)
            .map(|(cap, h)| cap / h as f64);
        self.nodes
            .iter()
            .map(|n| n.net_bandwidth)
            .chain(uplink_shares)
            .fold(f64::INFINITY, f64::min)
    }
}

/// The CLUSTER'16 paper testbed (Section II-B):
///
/// * nodes A, B, C — 32 cores @ 2.0 GHz AMD, 64 GB, 10 Gbps Ethernet,
/// * nodes D, E — 8 cores @ 2.3 GHz Intel, 48 GB, 1 Gbps Ethernet,
/// * node F (8 cores @ 2.5 GHz, 64 GB, 1 Gbps) is the master and hosts no
///   executor, so it is not part of the worker list.
///
/// Every worker runs one executor with 40 GB of memory, as in the paper.
pub fn paper_cluster() -> ClusterSpec {
    let exec_mem = 40; // GB, per executor
    ClusterSpec::new(vec![
        NodeSpec::new("A", 32, 2.0, exec_mem, 10.0),
        NodeSpec::new("B", 32, 2.0, exec_mem, 10.0),
        NodeSpec::new("C", 32, 2.0, exec_mem, 10.0),
        NodeSpec::new("D", 8, 2.3, exec_mem, 1.0),
        NodeSpec::new("E", 8, 2.3, exec_mem, 1.0),
    ])
}

/// A homogeneous cluster, handy for tests and ablations.
pub fn uniform_cluster(nodes: usize, cores: usize, speed_ghz: f64) -> ClusterSpec {
    assert!(nodes > 0, "need at least one node");
    ClusterSpec::new(
        (0..nodes)
            .map(|i| NodeSpec::new(&format!("n{i}"), cores, speed_ghz, 40, 10.0))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_matches_section_2b() {
        let c = paper_cluster();
        assert_eq!(c.num_nodes(), 5, "five workers: A-E");
        assert_eq!(c.total_cores(), 3 * 32 + 2 * 8);
        assert_eq!(c.nodes[0].speed, 2.0);
        assert_eq!(c.nodes[3].speed, 2.3);
        // 10 GbE vs 1 GbE split
        assert!(c.nodes[0].net_bandwidth > 9.0 * c.nodes[4].net_bandwidth);
        assert_eq!(c.nodes[3].name, "D");
        assert!(
            c.nodes.iter().all(|n| n.name != "F"),
            "master hosts no executor"
        );
    }

    #[test]
    fn uniform_cluster_shape() {
        let c = uniform_cluster(4, 8, 2.5);
        assert_eq!(c.total_cores(), 32);
        assert!(c.nodes.iter().all(|n| n.speed == 2.5));
    }

    #[test]
    fn executor_memory_is_40gb() {
        let c = paper_cluster();
        assert!(c
            .nodes
            .iter()
            .all(|n| n.memory_bytes == 40 * 1024 * 1024 * 1024));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn empty_cluster_rejected() {
        let _ = ClusterSpec::new(vec![]);
    }

    #[test]
    fn spec_roundtrips_through_serde() {
        let c = paper_cluster();
        let json = serde_json::to_string(&c).unwrap();
        let back: ClusterSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn rack_spec_roundtrips_through_serde() {
        let c = uniform_cluster(6, 4, 2.0).with_topology(Topology::Rack {
            racks: 3,
            hosts: 2,
            oversub: 4.0,
        });
        let json = serde_json::to_string(&c).unwrap();
        let back: ClusterSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.rack_of(0), 0);
        assert_eq!(back.rack_of(5), 2);
    }

    #[test]
    fn topology_defaults_to_flat_in_old_specs() {
        // A spec serialized before the topology field existed must load
        // as flat with the standard fetch concurrency.
        let c = paper_cluster();
        let json = serde_json::to_string(&c).unwrap();
        let stripped = json
            .replace("\"topology\":\"flat\",", "")
            .replace(",\"topology\":\"flat\"", "")
            .replace("\"max_concurrent_fetches\":5,", "")
            .replace(",\"max_concurrent_fetches\":5", "");
        assert_ne!(stripped, json, "fields were present to strip");
        let back: ClusterSpec = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.topology, Topology::Flat);
        assert_eq!(back.max_concurrent_fetches, 5);
    }

    #[test]
    #[should_panic(expected = "no room")]
    fn undersized_rack_grid_rejected() {
        let _ = uniform_cluster(6, 4, 2.0).with_topology(Topology::Rack {
            racks: 2,
            hosts: 2,
            oversub: 1.0,
        });
    }

    #[test]
    fn effective_shuffle_bandwidth_reflects_oversubscription() {
        let flat = uniform_cluster(4, 4, 2.0);
        let nic = flat.nodes[0].net_bandwidth;
        assert_eq!(flat.effective_shuffle_bandwidth(), nic);
        // The paper cluster's slowest NIC (1 GbE) is the binding one.
        let paper = paper_cluster();
        assert_eq!(paper.effective_shuffle_bandwidth(), 1e9 / 8.0);
        let racked = uniform_cluster(4, 4, 2.0).with_topology(Topology::Rack {
            racks: 2,
            hosts: 2,
            oversub: 4.0,
        });
        assert_eq!(racked.effective_shuffle_bandwidth(), nic / 4.0);
        // One full-bisection rack is the flat fabric.
        let one_rack = paper_cluster().with_topology(Topology::Rack {
            racks: 1,
            hosts: 5,
            oversub: 1.0,
        });
        assert_eq!(one_rack.effective_shuffle_bandwidth(), 1e9 / 8.0);
    }
}
