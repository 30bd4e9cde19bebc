//! Unified executor memory manager.
//!
//! Models Spark's unified memory model per simulated executor node: a
//! single per-node budget is shared between an *execution region* (task
//! working sets, reserved stage-by-stage) and a *storage region* (cached
//! RDD partitions). Execution borrows from storage: raising the execution
//! reservation shrinks the storage limit and may force evictions.
//!
//! The manager is the ledger of where cached bytes live on *every* run:
//! without a budget it is unbounded — it books the same entries and moves
//! and simply never finds a node over its limit.
//!
//! Eviction is least-reference-count (LRC: DAG-aware, after Yang et
//! al.): victims are ordered by remaining lineage references first,
//! recency second, so a partition still needed by a future stage outlives
//! one that is not. The manager stores no reference counts: it asks the
//! caller for an entry's remaining references only while it ranks
//! victims, so a run that never overflows never pays for them.
//!
//! A victim is always *spilled* (its bytes move to disk, a later read
//! pays a reread): the caller books only entries it still holds a handle
//! on, and releases an entry outright when it lets go. All decisions are
//! deterministic: entries live in a `BTreeMap` keyed by id and ties break
//! on (refs, last-access, id), never on hash order.

use std::collections::BTreeMap;

/// Monotonic counters describing everything the manager did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemCounters {
    /// Resident entries pushed out of the storage region to make room.
    pub evictions: u64,
    /// Spills: evicted entries, inserts that never fit, and map-side
    /// shuffle overflows.
    pub spills: u64,
    /// Total bytes written to spill storage.
    pub spill_bytes: u64,
    /// Reads served from spill storage.
    pub rereads: u64,
    /// Total bytes read back from spill storage.
    pub reread_bytes: u64,
    /// Entries released by the caller.
    pub released: u64,
}

/// A resident entry the manager moved to disk to make room, reported
/// back so the caller can mirror it (write the spill files, charge the
/// disk, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eviction {
    /// Entry id (the engine keys these by RDD id).
    pub id: u64,
    /// Resident bytes freed, per node.
    pub bytes: Vec<u64>,
}

/// An entry's remaining lineage references, by id. Called only while
/// ranking victims.
pub type RefsOf<'a> = &'a dyn Fn(u64) -> usize;

#[derive(Debug, Clone)]
struct Entry {
    /// Resident bytes per node (all zero once spilled).
    bytes: Vec<u64>,
    /// Logical size of the cached data (survives a spill; rereads are
    /// charged against it so spill→reread round-trips exactly).
    total: u64,
    last_access: u64,
    spilled: bool,
}

/// Deterministic unified memory manager for one simulated cluster.
#[derive(Debug)]
pub struct MemoryManager {
    /// Per-node unified budget; `None` means unbounded.
    budget: Option<u64>,
    num_nodes: usize,
    /// Logical clock for recency ordering.
    seq: u64,
    entries: BTreeMap<u64, Entry>,
    storage_used: Vec<u64>,
    exec_reserved: Vec<u64>,
    counters: MemCounters,
}

impl MemoryManager {
    /// Manager with a per-node unified budget.
    pub fn new(num_nodes: usize, budget: Option<u64>) -> Self {
        assert!(num_nodes > 0, "memory manager needs at least one node");
        MemoryManager {
            budget,
            num_nodes,
            seq: 0,
            entries: BTreeMap::new(),
            storage_used: vec![0; num_nodes],
            exec_reserved: vec![0; num_nodes],
            counters: MemCounters::default(),
        }
    }

    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    pub fn counters(&self) -> MemCounters {
        self.counters
    }

    /// Resident storage bytes per node.
    pub fn storage_used(&self) -> &[u64] {
        &self.storage_used
    }

    /// Storage-region limit on `node`: the unified budget minus whatever
    /// execution has reserved (execution borrows from storage first).
    pub fn storage_limit(&self, node: usize) -> Option<u64> {
        self.budget
            .map(|b| b.saturating_sub(self.exec_reserved[node]))
    }

    /// True when the entry exists and its bytes live on disk.
    pub fn is_spilled(&self, id: u64) -> bool {
        self.entries.get(&id).is_some_and(|e| e.spilled)
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Nodes whose storage region currently exceeds its limit, given an
    /// optional incoming allocation.
    fn over_budget_nodes(&self, incoming: Option<&[u64]>) -> Vec<usize> {
        (0..self.num_nodes)
            .filter(|&n| {
                let want = self.storage_used[n] + incoming.map_or(0, |b| b[n]);
                self.storage_limit(n).is_some_and(|limit| want > limit)
            })
            .collect()
    }

    /// Deterministically pick the next victim among resident entries
    /// holding bytes on any of `nodes`. Returns the entry id.
    fn pick_victim(&self, nodes: &[usize], exclude: Option<u64>, refs: RefsOf) -> Option<u64> {
        self.entries
            .iter()
            .filter(|&(&id, e)| {
                Some(id) != exclude && !e.spilled && nodes.iter().any(|&n| e.bytes[n] > 0)
            })
            .min_by_key(|&(&id, e)| (refs(id), e.last_access, id))
            .map(|(&id, _)| id)
    }

    /// Moves the resident entry `id` to disk; returns the decision record.
    fn evict(&mut self, id: u64) -> Eviction {
        let e = self.entries.get_mut(&id).expect("victim exists");
        let freed = std::mem::replace(&mut e.bytes, vec![0; self.num_nodes]);
        e.spilled = true;
        for (used, b) in self.storage_used.iter_mut().zip(&freed) {
            *used -= b;
        }
        self.counters.evictions += 1;
        self.counters.spills += 1;
        self.counters.spill_bytes += e.total;
        Eviction { id, bytes: freed }
    }

    /// Evict until every node fits (optionally with `incoming` added).
    /// Stops when no eligible victim remains even if still over — the
    /// caller decides what to do with the overflow.
    fn make_room(
        &mut self,
        incoming: Option<&[u64]>,
        exclude: Option<u64>,
        refs: RefsOf,
    ) -> Vec<Eviction> {
        let mut out = Vec::new();
        loop {
            let over = self.over_budget_nodes(incoming);
            if over.is_empty() {
                break;
            }
            match self.pick_victim(&over, exclude, refs) {
                Some(id) => out.push(self.evict(id)),
                None => break,
            }
        }
        out
    }

    /// Reserve execution memory per node for the upcoming stage; evicts
    /// cached data if storage must shrink to make room. Returns the
    /// evictions performed.
    pub fn set_execution_reservation(&mut self, per_node: &[u64], refs: RefsOf) -> Vec<Eviction> {
        assert_eq!(per_node.len(), self.num_nodes);
        self.exec_reserved.copy_from_slice(per_node);
        self.make_room(None, None, refs)
    }

    /// Insert a cached entry with `per_node` resident bytes, evicting
    /// others to make room; returns those evictions. If the entry does
    /// not fit even then, its own bytes go straight to disk — see
    /// [`MemoryManager::is_spilled`].
    pub fn insert(&mut self, id: u64, per_node: Vec<u64>, refs: RefsOf) -> Vec<Eviction> {
        assert_eq!(per_node.len(), self.num_nodes);
        let total: u64 = per_node.iter().sum();
        let last_access = self.next_seq();
        // Re-inserting an id replaces the old entry.
        self.remove(id);
        let evicted = self.make_room(Some(&per_node), Some(id), refs);
        let spilled = !self.over_budget_nodes(Some(&per_node)).is_empty();
        let bytes = if spilled {
            self.counters.spills += 1;
            self.counters.spill_bytes += total;
            vec![0; self.num_nodes]
        } else {
            for (used, b) in self.storage_used.iter_mut().zip(&per_node) {
                *used += b;
            }
            per_node
        };
        self.entries.insert(
            id,
            Entry {
                bytes,
                total,
                last_access,
                spilled,
            },
        );
        evicted
    }

    /// Re-homes cached data after the loss of node `from`: each
    /// `(id, to, bytes)` moves `bytes` of entry `id` from `from` to `to`,
    /// then survivors that overflowed make room as for an insert. A
    /// spilled entry holds no resident bytes, so its moves change nothing
    /// here (the caller re-creates its spill files on the new home).
    pub fn rehome(
        &mut self,
        from: usize,
        moves: &[(u64, usize, u64)],
        refs: RefsOf,
    ) -> Vec<Eviction> {
        for &(id, to, bytes) in moves {
            let e = self.entries.get_mut(&id).expect("re-homed entry is booked");
            if e.spilled {
                continue;
            }
            e.bytes[from] -= bytes;
            e.bytes[to] += bytes;
            self.storage_used[from] -= bytes;
            self.storage_used[to] += bytes;
        }
        self.make_room(None, None, refs)
    }

    /// Record a read of the entry (bumps recency).
    pub fn touch(&mut self, id: u64) {
        let seq = self.next_seq();
        if let Some(e) = self.entries.get_mut(&id) {
            e.last_access = seq;
        }
    }

    /// Charge a read of a spilled entry. Returns the bytes read back —
    /// exactly the bytes that were spilled for this entry.
    pub fn reread(&mut self, id: u64) -> u64 {
        let seq = self.next_seq();
        let Some(e) = self.entries.get_mut(&id) else {
            return 0;
        };
        debug_assert!(e.spilled, "reread of resident entry");
        e.last_access = seq;
        self.counters.rereads += 1;
        self.counters.reread_bytes += e.total;
        e.total
    }

    /// Record a map-side shuffle spill of `bytes` (combine buffer larger
    /// than the task's execution-memory share).
    pub fn note_shuffle_spill(&mut self, bytes: u64) {
        self.counters.spills += 1;
        self.counters.spill_bytes += bytes;
    }

    /// Takes the entry out of the books, resident bytes included.
    fn remove(&mut self, id: u64) -> bool {
        let Some(e) = self.entries.remove(&id) else {
            return false;
        };
        for (used, b) in self.storage_used.iter_mut().zip(&e.bytes) {
            *used -= b;
        }
        true
    }

    /// Remove an entry outright (the caller let go of it). Returns
    /// whether it existed.
    pub fn release(&mut self, id: u64) -> bool {
        let existed = self.remove(id);
        self.counters.released += u64::from(existed);
        existed
    }
}

// ---------------------------------------------------------------------------
// Tenant-scoped admission ledger (job server)
// ---------------------------------------------------------------------------

/// Monotonic counters for a [`TenantLedger`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerCounters {
    /// Admissions granted.
    pub admitted: u64,
    /// Admissions denied (would exceed guarantee + shared pool).
    pub denied: u64,
}

/// Per-tenant memory admission ledger with a shared overflow pool.
///
/// Each tenant holds a *guarantee* — bytes it can always occupy — and may
/// borrow past it from one *shared pool* that all tenants' overflows
/// compete for. The job server charges a job's estimated footprint here
/// before dispatching it and releases the charge at completion, so one
/// tenant's burst can delay (never starve: the guarantee is reserved) the
/// others. Purely arithmetic over explicit state — deterministic by
/// construction.
#[derive(Debug, Clone)]
pub struct TenantLedger {
    /// Shared overflow pool, competed for by every tenant's excess.
    shared: u64,
    /// Per-tenant guaranteed bytes.
    guarantees: Vec<u64>,
    /// Per-tenant bytes currently charged.
    used: Vec<u64>,
    counters: LedgerCounters,
}

impl TenantLedger {
    /// Ledger with `shared` overflow bytes and one guarantee per tenant.
    pub fn new(shared: u64, guarantees: Vec<u64>) -> TenantLedger {
        let used = vec![0; guarantees.len()];
        TenantLedger {
            shared,
            guarantees,
            used,
            counters: LedgerCounters::default(),
        }
    }

    pub fn counters(&self) -> LedgerCounters {
        self.counters
    }

    /// Bytes tenant `t` currently has charged.
    pub fn used(&self, t: usize) -> u64 {
        self.used[t]
    }

    /// Shared-pool bytes currently consumed by overflows past guarantees.
    pub fn shared_used(&self) -> u64 {
        self.used
            .iter()
            .zip(&self.guarantees)
            .map(|(&u, &g)| u.saturating_sub(g))
            .sum()
    }

    /// Tries to charge `bytes` to tenant `t`. The portion within the
    /// tenant's remaining guarantee is always granted; any excess must fit
    /// in what is left of the shared pool. All-or-nothing.
    pub fn try_admit(&mut self, t: usize, bytes: u64) -> bool {
        let after = self.used[t] + bytes;
        let overflow_after = after.saturating_sub(self.guarantees[t]);
        let overflow_now = self.used[t].saturating_sub(self.guarantees[t]);
        let shared_after = self.shared_used() - overflow_now + overflow_after;
        if shared_after > self.shared {
            self.counters.denied += 1;
            return false;
        }
        self.used[t] = after;
        self.counters.admitted += 1;
        true
    }

    /// Returns a prior charge. Saturates at zero so a conservative caller
    /// can never underflow the ledger.
    pub fn release(&mut self, t: usize, bytes: u64) {
        self.used[t] = self.used[t].saturating_sub(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every entry holds one reference.
    fn pinned(_: u64) -> usize {
        1
    }

    #[test]
    fn unlimited_never_evicts() {
        let mut m = MemoryManager::new(2, None);
        for id in 0..10 {
            let evicted = m.insert(id, vec![1 << 30, 1 << 30], &|_| {
                panic!("an unbounded manager never ranks victims")
            });
            assert!(evicted.is_empty());
            assert!(!m.is_spilled(id));
        }
        assert_eq!(m.storage_used(), &[10 << 30, 10 << 30]);
        assert_eq!(m.counters(), MemCounters::default());
    }

    #[test]
    fn lrc_spills_the_least_referenced_entry_first() {
        let mut m = MemoryManager::new(1, Some(100));
        let refs = |id| if id == 1 { 3 } else { 1 };
        m.insert(1, vec![40], &refs);
        m.insert(2, vec![40], &refs);
        m.touch(2); // recency says evict 1; refs say evict 2
        let evicted = m.insert(3, vec![40], &refs);
        assert_eq!(evicted[0].id, 2);
        assert!(m.is_spilled(2), "a victim is always spilled, never dropped");
        assert!(!m.is_spilled(1), "the most-referenced entry stays resident");
        assert_eq!(m.counters().evictions, 1);
        assert_eq!(m.counters().spills, 1);
    }

    #[test]
    fn execution_reservation_squeezes_storage() {
        let mut m = MemoryManager::new(1, Some(100));
        m.insert(1, vec![60], &pinned);
        assert!(m.set_execution_reservation(&[30], &pinned).is_empty());
        let ev = m.set_execution_reservation(&[70], &pinned);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].id, 1);
        assert!(m.is_spilled(1));
        assert_eq!(m.storage_used(), &[0]);
    }

    #[test]
    fn oversized_insert_spills_itself() {
        let mut m = MemoryManager::new(2, Some(50));
        assert!(m.insert(7, vec![60, 10], &pinned).is_empty());
        assert!(m.is_spilled(7));
        assert_eq!(m.counters().spill_bytes, 70);
        assert_eq!(m.counters().evictions, 0, "nothing was resident to evict");
        assert_eq!(m.reread(7), 70);
        assert_eq!(m.counters().reread_bytes, 70);
    }

    #[test]
    fn rehome_moves_bytes_and_an_overflowing_survivor_spills() {
        let mut m = MemoryManager::new(3, Some(100));
        m.insert(1, vec![40, 40, 0], &pinned);
        m.insert(2, vec![50, 0, 50], &pinned);
        // Node 0 dies: entry 1's bytes go to node 1, entry 2's to node 2.
        let evicted = m.rehome(0, &[(1, 1, 40), (2, 2, 50)], &pinned);
        assert!(evicted.is_empty(), "both survivors still fit");
        assert_eq!(m.storage_used(), &[0, 80, 100]);
        // Node 1 dies too: its 80 bytes land on node 2, which overflows;
        // the least recently used resident entry there spills whole.
        let evicted = m.rehome(1, &[(1, 2, 80)], &pinned);
        assert_eq!(
            evicted,
            vec![Eviction {
                id: 1,
                bytes: vec![0, 0, 80]
            }]
        );
        assert_eq!(m.storage_used(), &[0, 0, 100]);
        // A spilled entry has no resident bytes left to move.
        assert!(m.rehome(2, &[(1, 0, 80)], &pinned).is_empty());
        assert_eq!(m.storage_used(), &[0, 0, 100]);
        assert!(m.is_spilled(1) && !m.is_spilled(2));
    }

    #[test]
    fn release_frees_resident_bytes() {
        let mut m = MemoryManager::new(1, None);
        m.insert(1, vec![10], &pinned);
        m.insert(2, vec![20], &pinned);
        assert!(m.release(2));
        assert!(!m.release(2), "already gone");
        assert_eq!(m.storage_used(), &[10]);
        assert_eq!(m.counters().released, 1);
    }

    #[test]
    fn reinsert_replaces_prior_accounting() {
        let mut m = MemoryManager::new(1, Some(100));
        m.insert(1, vec![80], &pinned);
        m.insert(1, vec![40], &pinned);
        assert_eq!(m.storage_used(), &[40]);
    }

    #[test]
    fn ledger_guarantee_is_always_available() {
        let mut l = TenantLedger::new(0, vec![100, 100]);
        assert!(l.try_admit(0, 100));
        assert!(l.try_admit(1, 100), "tenant 1's guarantee is untouchable");
        assert!(!l.try_admit(0, 1), "no shared pool to borrow from");
        assert_eq!(
            l.counters(),
            LedgerCounters {
                admitted: 2,
                denied: 1
            }
        );
    }

    #[test]
    fn ledger_overflow_competes_for_shared_pool() {
        let mut l = TenantLedger::new(50, vec![100, 100]);
        assert!(l.try_admit(0, 140)); // 40 over guarantee, from shared
        assert_eq!(l.shared_used(), 40);
        assert!(!l.try_admit(1, 120), "20 over, only 10 shared left");
        assert!(l.try_admit(1, 110)); // exactly fills the shared pool
        assert_eq!(l.shared_used(), 50);
        l.release(0, 140);
        assert_eq!(l.used(0), 0);
        assert!(l.try_admit(0, 130), "released shared bytes come back");
    }

    #[test]
    fn ledger_release_saturates() {
        let mut l = TenantLedger::new(10, vec![20]);
        assert!(l.try_admit(0, 15));
        l.release(0, 100);
        assert_eq!(l.used(0), 0);
        assert_eq!(l.shared_used(), 0);
    }
}
