//! Property-based tests for the ledger invariants the engine relies on:
//! the per-node totals are always the sum of the resident entries, no
//! operation leaves a node over its storage limit, LRC spills entries in
//! reference order, and spill→reread round-trips byte counts exactly.

use memman::{Eviction, MemoryManager};
use proptest::prelude::*;
use std::collections::BTreeMap;

const NODES: usize = 3;

/// Remaining references as a fixed function of the id (the manager only
/// asks while ranking victims, so any pure function will do).
fn refs(id: u64) -> usize {
    (id % 3) as usize + 1
}

/// What the test believes the ledger holds for one entry.
struct Booked {
    /// Resident bytes per node; all zero once spilled.
    bytes: Vec<u64>,
    total: u64,
    spilled: bool,
}

/// An independent copy of the books, updated from what the manager
/// reports, that the manager's own totals are checked against.
#[derive(Default)]
struct Model {
    entries: BTreeMap<u64, Booked>,
    spill_bytes: u64,
}

impl Model {
    fn apply(&mut self, evicted: &[Eviction]) {
        for ev in evicted {
            let e = self.entries.get_mut(&ev.id).expect("victim was booked");
            assert!(!e.spilled, "entry {} spilled twice", ev.id);
            assert_eq!(e.bytes, ev.bytes, "freed bytes are the resident bytes");
            e.bytes = vec![0; NODES];
            e.spilled = true;
            self.spill_bytes += e.total;
        }
    }

    fn check(&self, m: &MemoryManager) {
        for n in 0..NODES {
            let resident: u64 = self.entries.values().map(|e| e.bytes[n]).sum();
            assert_eq!(m.storage_used()[n], resident, "node {n}: totals drifted");
            // Every resident byte belongs to an eligible victim, so a node
            // still over its limit would mean one was passed over.
            if let Some(limit) = m.storage_limit(n) {
                assert!(resident <= limit, "node {n}: {resident} over {limit}");
            }
        }
        for (&id, e) in &self.entries {
            assert_eq!(m.is_spilled(id), e.spilled, "entry {id}");
        }
        assert_eq!(m.counters().spill_bytes, self.spill_bytes);
    }
}

/// Drives a manager and the model through one random op sequence.
fn check_books_agree(budget: Option<u64>, ops: &[(u64, u64, u64, usize)]) {
    let mut m = MemoryManager::new(NODES, budget);
    let mut model = Model::default();
    for (i, &(id, a, b, node)) in ops.iter().enumerate() {
        match i % 6 {
            0..=2 => {
                let mut per_node = vec![0u64; NODES];
                per_node[node] = a;
                per_node[(node + 1) % NODES] = b / 2;
                let total = a + b / 2;
                model.entries.remove(&id);
                let evicted = m.insert(id, per_node.clone(), &refs);
                model.apply(&evicted);
                let spilled = m.is_spilled(id);
                if spilled {
                    per_node = vec![0; NODES];
                    model.spill_bytes += total;
                }
                let booked = Booked {
                    bytes: per_node,
                    total,
                    spilled,
                };
                model.entries.insert(id, booked);
            }
            3 => {
                let reserve = vec![a % budget.unwrap_or(4_000).max(1); NODES];
                let evicted = m.set_execution_reservation(&reserve, &refs);
                model.apply(&evicted);
            }
            4 => {
                // Node `node` dies: every entry's bytes there move on.
                let to = (node + 1 + (a % 2) as usize) % NODES;
                let mut moves = Vec::new();
                for (&id, e) in model.entries.iter_mut() {
                    let bytes = e.bytes[node];
                    e.bytes[node] = 0;
                    e.bytes[to] += bytes;
                    // A spilled entry's move names the partition's size.
                    moves.push((id, to, if e.spilled { e.total } else { bytes }));
                }
                let evicted = m.rehome(node, &moves, &refs);
                model.apply(&evicted);
            }
            _ => {
                m.touch(b % 8);
                assert_eq!(m.release(id), model.entries.remove(&id).is_some());
            }
        }
        model.check(&m);
    }
}

proptest! {
    /// Invariant 1: under any mix of inserts, reservations, node-loss
    /// moves, touches and releases — bounded or not — the
    /// per-node totals equal the sum of the resident entries, no node
    /// ends an operation over its storage limit, and `spill_bytes` is the
    /// total size of everything that was spilled.
    #[test]
    fn the_books_agree_after_every_operation(
        budget in proptest::option::of(1u64..10_000),
        ops in proptest::collection::vec(
            (0u64..8, 0u64..4_000, 0u64..4_000, 0usize..NODES), 1..60),
    ) {
        check_books_agree(budget, &ops);
    }

    /// Invariant 2: LRC never spills an entry while a resident one with
    /// fewer remaining references is eligible. With a single node every
    /// resident entry is an eligible victim, so within one call the
    /// eviction sequence must be nondecreasing in ref-count.
    #[test]
    fn lrc_spills_in_reference_order(
        sizes in proptest::collection::vec(1u64..500, 2..30),
        budget in 200u64..2_000,
    ) {
        let mut m = MemoryManager::new(1, Some(budget));
        for (i, &size) in sizes.iter().enumerate() {
            let evicted = m.insert(i as u64, vec![size], &refs);
            for pair in evicted.windows(2) {
                prop_assert!(
                    refs(pair[0].id) <= refs(pair[1].id),
                    "spilled entry {} (refs {}) before {} (refs {})",
                    pair[0].id, refs(pair[0].id), pair[1].id, refs(pair[1].id)
                );
            }
        }
    }

    /// Invariant 3: every spilled entry rereads exactly the bytes that
    /// were spilled for it, and the aggregate counters balance.
    #[test]
    fn spill_reread_round_trips_exactly(
        sizes in proptest::collection::vec(1u64..1_000, 1..25),
        budget in 1u64..800,
    ) {
        let mut m = MemoryManager::new(2, Some(budget));
        let mut spilled: BTreeMap<u64, u64> = BTreeMap::new();
        let mut totals: BTreeMap<u64, u64> = BTreeMap::new();
        for (i, &size) in sizes.iter().enumerate() {
            let id = i as u64;
            totals.insert(id, size + size / 3);
            let evicted = m.insert(id, vec![size, size / 3], &refs);
            if m.is_spilled(id) {
                spilled.insert(id, totals[&id]);
            }
            for ev in evicted {
                spilled.insert(ev.id, totals[&ev.id]);
            }
        }
        let expected_spill_bytes: u64 = spilled.values().sum();
        prop_assert_eq!(m.counters().spill_bytes, expected_spill_bytes);
        let mut reread_total = 0u64;
        for (&id, &bytes) in &spilled {
            prop_assert!(m.is_spilled(id));
            let got = m.reread(id);
            prop_assert_eq!(got, bytes, "reread bytes differ from spilled bytes");
            reread_total += got;
        }
        prop_assert_eq!(m.counters().reread_bytes, reread_total);
        prop_assert_eq!(m.counters().rereads, spilled.len() as u64);
    }
}
