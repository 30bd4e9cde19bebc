//! Property-based tests for the block store's placement and accounting
//! invariants.

use blockstore::BlockStore;
use proptest::prelude::*;

proptest! {
    /// File length is always preserved across splitting into blocks.
    #[test]
    fn file_length_is_preserved(nodes in 1usize..8, block in 1u64..10_000,
                                len in 0u64..1_000_000) {
        let s = BlockStore::with_config(nodes, block, 2);
        s.create_file("f", len);
        prop_assert_eq!(s.file_len("f"), Some(len));
        // Block count: ceil(len/block), at least one.
        let blocks = s.file_blocks("f").unwrap();
        let expected = len.div_ceil(block).max(1);
        prop_assert_eq!(blocks.len() as u64, expected);
        // No block exceeds the block size.
        for b in &blocks {
            prop_assert!(b.size <= block);
        }
    }

    /// Replicas are always distinct nodes and exactly min(replication, nodes).
    #[test]
    fn replicas_are_distinct(nodes in 1usize..10, replication in 1usize..6,
                             len in 1u64..100_000) {
        let s = BlockStore::with_config(nodes, 4096, replication);
        s.create_file("f", len);
        let expected = replication.min(nodes);
        for b in s.file_blocks("f").unwrap() {
            let mut r = b.replicas.clone();
            r.sort_unstable();
            let before = r.len();
            r.dedup();
            prop_assert_eq!(r.len(), before, "duplicate replica nodes");
            prop_assert_eq!(before, expected);
            for &n in &r {
                prop_assert!(n < nodes);
            }
        }
    }

    /// Used bytes equal replication × logical size, and deleting restores
    /// the empty state exactly.
    #[test]
    fn space_accounting_balances(files in proptest::collection::vec(
        ("[a-z]{1,6}", 0u64..200_000), 1..10))
    {
        let s = BlockStore::with_config(4, 8192, 2);
        let mut logical: std::collections::HashMap<String, u64> =
            std::collections::HashMap::new();
        for (name, len) in &files {
            s.create_file(name, *len);
            logical.insert(name.clone(), *len); // re-creation replaces
        }
        let total_logical: u64 = logical.values().sum();
        let used: u64 = s.used_bytes().iter().sum();
        prop_assert_eq!(used, total_logical * 2, "2-way replication");
        for name in logical.keys() {
            prop_assert!(s.delete_file(name));
        }
        prop_assert_eq!(s.used_bytes().iter().sum::<u64>(), 0);
    }

    /// Placement balances: with many same-size blocks, no node holds more
    /// than twice the fair share.
    #[test]
    fn placement_is_roughly_balanced(nodes in 2usize..8, blocks in 8u64..64) {
        let s = BlockStore::with_config(nodes, 1000, 1);
        s.create_file("big", blocks * 1000);
        let used = s.used_bytes();
        let fair = (blocks * 1000) as f64 / nodes as f64;
        for &u in &used {
            prop_assert!((u as f64) <= 2.0 * fair + 1000.0,
                "node overloaded: {u} vs fair {fair}");
        }
    }

    /// Read counters advance exactly once per block per read.
    #[test]
    fn read_accounting_is_exact(len in 1u64..50_000, reads in 1usize..5) {
        let s = BlockStore::with_config(3, 4096, 1);
        s.create_file("f", len);
        let blocks = s.file_blocks("f").unwrap().len() as u64;
        let before = s.counters();
        for _ in 0..reads {
            s.read_file("f").unwrap();
        }
        let after = s.counters();
        prop_assert_eq!(after.reads - before.reads, blocks * reads as u64);
        prop_assert_eq!(after.bytes_read - before.bytes_read, len * reads as u64);
    }
}
