//! An HDFS-like replicated block store.
//!
//! The paper's Spark deployment reads its input from HDFS; CHOPPER's
//! evaluation additionally reports disk transactions per second (Fig. 14).
//! This substrate provides the pieces the engine needs from a distributed
//! filesystem:
//!
//! * files split into fixed-size blocks,
//! * load-balanced replica placement across data nodes,
//! * block → node locality lookup (drives the input-stage task placement),
//! * read/write transaction counters.
//!
//! Data content is not stored here — the engine materializes records itself;
//! the block store tracks *where bytes live* and *how much I/O happened*.

use parking_lot::Mutex;
use std::collections::HashMap;

/// Index of a data node (aligned with `simcluster::NodeId`).
pub type NodeId = usize;

/// Metadata of one stored block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMeta {
    /// Byte length of this block (≤ the store's block size).
    pub size: u64,
    /// Nodes holding a replica; the first entry is the primary.
    pub replicas: Vec<NodeId>,
}

/// Aggregate I/O counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounters {
    /// Completed block-read operations.
    pub reads: u64,
    /// Completed block-write operations (one per stored replica).
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written (counting every replica).
    pub bytes_written: u64,
}

#[derive(Debug, Default)]
struct Inner {
    files: HashMap<String, Vec<BlockMeta>>,
    used_bytes: Vec<u64>,
    counters: IoCounters,
}

impl Inner {
    /// Drops a file and releases its space. Returns whether it existed.
    fn remove(&mut self, name: &str) -> bool {
        let Some(blocks) = self.files.remove(name) else {
            return false;
        };
        for b in &blocks {
            for &n in &b.replicas {
                self.used_bytes[n] = self.used_bytes[n].saturating_sub(b.size);
            }
        }
        true
    }
}

/// A replicated block store over `num_nodes` data nodes.
#[derive(Debug)]
pub struct BlockStore {
    num_nodes: usize,
    block_size: u64,
    replication: usize,
    inner: Mutex<Inner>,
}

impl BlockStore {
    /// Creates a store with HDFS-ish defaults: 128 MB blocks, 3-way
    /// replication (capped at the node count).
    pub fn new(num_nodes: usize) -> Self {
        Self::with_config(num_nodes, 128 * 1024 * 1024, 3)
    }

    /// Creates a store with explicit block size and replication factor.
    ///
    /// # Panics
    /// Panics if `num_nodes` or `block_size` or `replication` is zero.
    pub fn with_config(num_nodes: usize, block_size: u64, replication: usize) -> Self {
        assert!(num_nodes > 0, "need at least one data node");
        assert!(block_size > 0, "block size must be positive");
        assert!(replication > 0, "replication factor must be positive");
        BlockStore {
            num_nodes,
            block_size,
            replication: replication.min(num_nodes),
            inner: Mutex::new(Inner {
                files: HashMap::new(),
                used_bytes: vec![0; num_nodes],
                counters: IoCounters::default(),
            }),
        }
    }

    /// The store's block size in bytes.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// The effective replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Creates (or replaces) a file of `total_bytes`, splitting it into
    /// blocks and placing each block's replicas on the least-loaded nodes.
    ///
    /// Returns the number of blocks created. Writing counts toward the
    /// transaction counters (one write per stored replica).
    pub fn create_file(&self, name: &str, total_bytes: u64) -> usize {
        self.write_file(name, total_bytes, |used| {
            let mut order: Vec<NodeId> = (0..used.len()).collect();
            // Stable tiebreak on node id keeps placement deterministic.
            order.sort_by_key(|&n| (used[n], n));
            order.truncate(self.replication);
            order
        })
    }

    /// Creates (or replaces) an unreplicated file pinned entirely to
    /// `node` — the engine's spill path writes evicted cache partitions
    /// to the local disk of the node that held them. Returns the number of
    /// blocks created.
    pub fn create_file_on(&self, name: &str, total_bytes: u64, node: NodeId) -> usize {
        assert!(node < self.num_nodes, "spill target node out of range");
        self.write_file(name, total_bytes, |_| vec![node])
    }

    /// Replaces `name` with `total_bytes` cut into blocks (an empty file
    /// still gets one zero-length block); `place` picks each block's
    /// replica nodes from the per-node usage so far.
    fn write_file(
        &self,
        name: &str,
        total_bytes: u64,
        place: impl Fn(&[u64]) -> Vec<NodeId>,
    ) -> usize {
        let mut inner = self.inner.lock();
        inner.remove(name);
        let mut blocks = Vec::new();
        let mut remaining = total_bytes;
        while remaining > 0 || blocks.is_empty() {
            let size = remaining.min(self.block_size);
            let replicas = place(&inner.used_bytes);
            for &n in &replicas {
                inner.used_bytes[n] += size;
                inner.counters.writes += 1;
                inner.counters.bytes_written += size;
            }
            blocks.push(BlockMeta { size, replicas });
            remaining -= size;
        }
        let n = blocks.len();
        inner.files.insert(name.to_string(), blocks);
        n
    }

    /// The block list of a file, if it exists.
    pub fn file_blocks(&self, name: &str) -> Option<Vec<BlockMeta>> {
        self.inner.lock().files.get(name).cloned()
    }

    /// Total length of a file in bytes.
    pub fn file_len(&self, name: &str) -> Option<u64> {
        self.inner
            .lock()
            .files
            .get(name)
            .map(|bs| bs.iter().map(|b| b.size).sum())
    }

    /// Records a full read of the file, charging one read transaction per
    /// block, and returns the block list for locality-aware scheduling.
    pub fn read_file(&self, name: &str) -> Option<Vec<BlockMeta>> {
        let mut inner = self.inner.lock();
        let blocks = inner.files.get(name).cloned()?;
        for b in &blocks {
            inner.counters.reads += 1;
            inner.counters.bytes_read += b.size;
        }
        Some(blocks)
    }

    /// Deterministic serving-replica choice for one block under a set of
    /// down nodes: the primary when it survives, otherwise the
    /// *lowest-id* surviving replica. Scanning the replica list in
    /// node-id order (never map iteration order) keeps the choice
    /// identical across runs, which the engine's fault-recovery
    /// equivalence tests depend on. Returns `None` when the file/block
    /// is missing or every replica is down.
    pub fn select_replica(&self, name: &str, block: usize, down: &[bool]) -> Option<NodeId> {
        let inner = self.inner.lock();
        let meta = inner.files.get(name)?.get(block)?;
        Self::pick_from(&meta.replicas, down)
    }

    fn pick_from(replicas: &[NodeId], down: &[bool]) -> Option<NodeId> {
        let alive = |&&n: &&NodeId| !down.get(n).copied().unwrap_or(false);
        match replicas.first() {
            Some(&primary) if alive(&&primary) => Some(primary),
            _ => replicas.iter().filter(alive).min().copied(),
        }
    }

    /// Deletes a file, releasing its space. Returns whether it existed.
    pub fn delete_file(&self, name: &str) -> bool {
        self.inner.lock().remove(name)
    }

    /// Bytes stored per node (all replicas counted).
    pub fn used_bytes(&self) -> Vec<u64> {
        self.inner.lock().used_bytes.clone()
    }

    /// Snapshot of the I/O counters.
    pub fn counters(&self) -> IoCounters {
        self.inner.lock().counters
    }

    /// Number of data nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_splits_into_block_sized_pieces() {
        let s = BlockStore::with_config(3, 100, 2);
        let n = s.create_file("f", 250);
        assert_eq!(n, 3);
        let blocks = s.file_blocks("f").unwrap();
        assert_eq!(
            blocks.iter().map(|b| b.size).collect::<Vec<_>>(),
            vec![100, 100, 50]
        );
        assert_eq!(s.file_len("f"), Some(250));
    }

    #[test]
    fn replication_caps_at_node_count() {
        let s = BlockStore::with_config(2, 100, 3);
        assert_eq!(s.replication(), 2);
        s.create_file("f", 100);
        let b = &s.file_blocks("f").unwrap()[0];
        assert_eq!(b.replicas.len(), 2);
    }

    #[test]
    fn replicas_are_distinct_nodes() {
        let s = BlockStore::with_config(5, 10, 3);
        s.create_file("f", 100);
        for b in s.file_blocks("f").unwrap() {
            let mut r = b.replicas.clone();
            r.sort_unstable();
            r.dedup();
            assert_eq!(r.len(), 3, "replicas must be distinct");
        }
    }

    #[test]
    fn placement_balances_load() {
        let s = BlockStore::with_config(4, 100, 1);
        s.create_file("f", 100 * 8); // 8 blocks over 4 nodes
        let used = s.used_bytes();
        assert!(
            used.iter().all(|&u| u == 200),
            "even spread expected, got {used:?}"
        );
    }

    #[test]
    fn read_counts_transactions() {
        let s = BlockStore::with_config(3, 100, 1);
        s.create_file("f", 250);
        s.read_file("f").unwrap();
        let c = s.counters();
        assert_eq!(c.reads, 3);
        assert_eq!(c.bytes_read, 250);
        assert_eq!(c.writes, 3);
        assert_eq!(c.bytes_written, 250);
    }

    #[test]
    fn replicated_writes_count_per_replica() {
        let s = BlockStore::with_config(3, 100, 3);
        s.create_file("f", 100);
        let c = s.counters();
        assert_eq!(c.writes, 3);
        assert_eq!(c.bytes_written, 300);
    }

    #[test]
    fn delete_releases_space() {
        let s = BlockStore::with_config(2, 100, 1);
        s.create_file("f", 300);
        assert!(s.used_bytes().iter().sum::<u64>() > 0);
        assert!(s.delete_file("f"));
        assert_eq!(s.used_bytes().iter().sum::<u64>(), 0);
        assert!(!s.delete_file("f"));
        assert_eq!(s.file_blocks("f"), None);
    }

    #[test]
    fn recreate_replaces_old_file() {
        let s = BlockStore::with_config(2, 100, 1);
        s.create_file("f", 500);
        s.create_file("f", 100);
        assert_eq!(s.file_len("f"), Some(100));
        assert_eq!(s.used_bytes().iter().sum::<u64>(), 100);
    }

    #[test]
    fn empty_file_has_one_empty_block() {
        let s = BlockStore::with_config(2, 100, 1);
        assert_eq!(s.create_file("empty", 0), 1);
        assert_eq!(s.file_len("empty"), Some(0));
    }

    #[test]
    fn missing_file_reads_none() {
        let s = BlockStore::new(3);
        assert_eq!(s.read_file("nope"), None);
        assert_eq!(s.file_len("nope"), None);
    }

    #[test]
    fn spill_file_pins_to_node() {
        let s = BlockStore::with_config(4, 100, 3);
        let n = s.create_file_on("__spill/r1.p0", 250, 2);
        assert_eq!(n, 3);
        for b in s.file_blocks("__spill/r1.p0").unwrap() {
            assert_eq!(
                b.replicas,
                vec![2],
                "spill blocks are unreplicated + pinned"
            );
        }
        assert_eq!(s.used_bytes(), vec![0, 0, 250, 0]);
        let c = s.counters();
        assert_eq!(c.writes, 3);
        assert_eq!(c.bytes_written, 250);
    }

    #[test]
    fn replica_selection_prefers_surviving_primary_then_lowest_id() {
        // Load nodes unevenly so the replica list is NOT in node-id order:
        // pre-load nodes 0 and 1, leaving 4, 3, 2 the least-loaded (in
        // (used, id) order) for the next placement.
        let s = BlockStore::with_config(5, 100, 3);
        s.create_file_on("ballast0", 300, 0);
        s.create_file_on("ballast1", 200, 1);
        s.create_file_on("ballast2", 100, 2);
        s.create_file("f", 100);
        let replicas = s.file_blocks("f").unwrap()[0].replicas.clone();
        assert_eq!(replicas, vec![3, 4, 2], "placement order is (used, id)");

        let up = vec![false; 5];
        assert_eq!(s.select_replica("f", 0, &up), Some(3), "primary when alive");

        // Primary down: the *lowest-id* surviving replica serves — node 2,
        // not node 4, even though 4 precedes 2 in the placement list.
        let mut down = vec![false; 5];
        down[3] = true;
        assert_eq!(s.select_replica("f", 0, &down), Some(2));

        down[2] = true;
        assert_eq!(s.select_replica("f", 0, &down), Some(4));

        down[4] = true;
        assert_eq!(s.select_replica("f", 0, &down), None, "all replicas lost");

        assert_eq!(s.select_replica("f", 9, &up), None, "missing block");
        assert_eq!(s.select_replica("nope", 0, &up), None, "missing file");
    }

    #[test]
    fn deterministic_placement() {
        let mk = || {
            let s = BlockStore::with_config(5, 64, 2);
            s.create_file("a", 1000);
            s.create_file("b", 512);
            (s.file_blocks("a").unwrap(), s.file_blocks("b").unwrap())
        };
        assert_eq!(mk(), mk());
    }
}
