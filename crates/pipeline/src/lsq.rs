//! The load/store queue: program-ordered memory operations with
//! store→load forwarding and conservative load scheduling ("loads may
//! execute when prior store addresses are known", Table 1).
//!
//! The load gate is O(1): the queue keeps the sequence number of its
//! oldest store whose address is still unknown ([`Lsq::store_gate`]),
//! exact after every mutation, and a load may issue exactly when it is
//! older than that store. Entries stay sorted by sequence number, so
//! lookups binary-search and commit pops the head.

use crate::rob::SlotId;
use rfcache_isa::InstSeq;
use std::collections::VecDeque;

/// Word granularity used for forwarding/alias checks (8-byte words).
const WORD_SHIFT: u32 = 3;

#[derive(Debug, Clone, Copy)]
struct LsqEntry {
    slot: SlotId,
    seq: InstSeq,
    is_store: bool,
    addr: u64,
    /// Stores: address has been computed (the store has issued).
    addr_known: bool,
    /// Stores: data value is available for forwarding (store completed).
    data_ready: bool,
}

/// Outcome of searching the older stores for a load's address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreSearch {
    /// No older store overlaps: access the data cache.
    NoConflict,
    /// The nearest older overlapping store can forward its data.
    Forward,
    /// The nearest older overlapping store has not produced its data yet:
    /// the load must retry later.
    MustWait,
}

/// The load/store queue.
///
/// # Examples
///
/// ```
/// use rfcache_pipeline::{Lsq, StoreSearch, SlotId, Rob};
/// use rfcache_isa::{ArchReg, OpClass, TraceInst};
///
/// let mut rob = Rob::new(4);
/// let mut lsq = Lsq::new(8);
/// let st = rob.push(0, TraceInst::store(ArchReg::int(1), ArchReg::int(2), 0x100, 0));
/// let ld = rob.push(1, TraceInst::load(ArchReg::int(3), ArchReg::int(2), 0x100, 4));
/// lsq.insert(st, 0, true, 0x100);
/// lsq.insert(ld, 1, false, 0x100);
/// assert!(!lsq.prior_store_addresses_known(1)); // store not issued yet
/// lsq.store_address_ready(0);
/// assert_eq!(lsq.search_older_stores(1, 0x100), StoreSearch::MustWait);
/// lsq.store_data_ready(0);
/// assert_eq!(lsq.search_older_stores(1, 0x100), StoreSearch::Forward);
/// ```
#[derive(Debug, Clone)]
pub struct Lsq {
    /// Program order: strictly increasing `seq` from head to tail.
    entries: VecDeque<LsqEntry>,
    capacity: usize,
    /// Sequence number of the oldest store whose address is unknown
    /// (`None` when every queued store has its address).
    unknown_store: Option<InstSeq>,
}

impl Lsq {
    /// Creates a queue with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LSQ capacity must be positive");
        Lsq { entries: VecDeque::with_capacity(capacity), capacity, unknown_store: None }
    }

    /// Current occupancy.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the queue is full (dispatch must stall).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Appends a memory operation at dispatch (program order).
    ///
    /// # Panics
    ///
    /// Panics if the queue is full or `seq` is not monotonically
    /// increasing.
    pub fn insert(&mut self, slot: SlotId, seq: InstSeq, is_store: bool, addr: u64) {
        assert!(!self.is_full(), "LSQ overflow: check is_full() before insert");
        if let Some(last) = self.entries.back() {
            assert!(last.seq < seq, "LSQ inserts must follow program order");
        }
        self.entries.push_back(LsqEntry {
            slot,
            seq,
            is_store,
            addr,
            addr_known: false,
            data_ready: false,
        });
        // Any store already waiting on its address is older than this one.
        if is_store && self.unknown_store.is_none() {
            self.unknown_store = Some(seq);
        }
    }

    fn position(&self, seq: InstSeq) -> Option<usize> {
        self.entries.binary_search_by_key(&seq, |e| e.seq).ok()
    }

    /// Moves the gate past entry `i` if it was the gate store: to the
    /// next younger store with an unknown address, if any.
    fn advance_gate_past(&mut self, i: usize) {
        if self.unknown_store == Some(self.entries[i].seq) {
            self.unknown_store =
                self.entries.range(i + 1..).find(|e| e.is_store && !e.addr_known).map(|e| e.seq);
        }
    }

    /// Marks the store with sequence `seq` as having computed its address
    /// (it has issued).
    pub fn store_address_ready(&mut self, seq: InstSeq) {
        if let Some(i) = self.position(seq) {
            debug_assert!(self.entries[i].is_store);
            self.entries[i].addr_known = true;
            self.advance_gate_past(i);
        }
    }

    /// Marks the store with sequence `seq` as having its data available
    /// (it completed execution).
    pub fn store_data_ready(&mut self, seq: InstSeq) {
        if let Some(i) = self.position(seq) {
            debug_assert!(self.entries[i].is_store);
            self.entries[i].addr_known = true;
            self.entries[i].data_ready = true;
            self.advance_gate_past(i);
        }
    }

    /// Whether every store older than `seq` has a known address — the
    /// paper's condition for a load to begin execution. O(1).
    #[inline]
    pub fn prior_store_addresses_known(&self, seq: InstSeq) -> bool {
        self.unknown_store.is_none_or(|u| u >= seq)
    }

    /// Sequence number of the oldest queued store whose address is not
    /// yet known, or `None` if there is none: the loads that may issue
    /// are exactly those older than it (see
    /// [`prior_store_addresses_known`](Lsq::prior_store_addresses_known)).
    #[inline]
    pub fn store_gate(&self) -> Option<InstSeq> {
        self.unknown_store
    }

    /// The load gate by a walk from the head — the definition the O(1)
    /// [`prior_store_addresses_known`](Lsq::prior_store_addresses_known)
    /// must agree with. For debug assertions and tests.
    pub(crate) fn prior_store_addresses_known_by_scan(&self, seq: InstSeq) -> bool {
        self.entries.iter().take_while(|e| e.seq < seq).all(|e| !e.is_store || e.addr_known)
    }

    /// Searches older stores for one overlapping the load at `addr`
    /// (8-byte granularity), nearest first.
    pub fn search_older_stores(&self, seq: InstSeq, addr: u64) -> StoreSearch {
        let word = addr >> WORD_SHIFT;
        for e in self.entries.iter().rev().skip_while(|e| e.seq >= seq) {
            if e.is_store && e.addr_known && (e.addr >> WORD_SHIFT) == word {
                return if e.data_ready { StoreSearch::Forward } else { StoreSearch::MustWait };
            }
        }
        StoreSearch::NoConflict
    }

    /// Removes the entry with sequence `seq` (commit of a memory op).
    /// Commit removes the head, where the removal is a pop. A committing
    /// store already has its address, so commit never moves the gate;
    /// removing the gate store itself moves it to the next one.
    pub fn remove(&mut self, seq: InstSeq) {
        if let Some(i) = self.position(seq) {
            self.advance_gate_past(i);
            self.entries.remove(i);
        }
    }

    /// Removes every entry younger than `seq` (misprediction squash).
    pub fn squash_younger(&mut self, seq: InstSeq) {
        let keep = self.entries.partition_point(|e| e.seq <= seq);
        self.entries.truncate(keep);
        // A gate past `seq` was squashed, and every survivor is older
        // than it, so each surviving store has its address.
        if self.unknown_store.is_some_and(|u| u > seq) {
            self.unknown_store = None;
        }
    }

    /// Handle of the entry with sequence `seq`, if present.
    pub fn slot_of(&self, seq: InstSeq) -> Option<SlotId> {
        self.position(seq).map(|i| self.entries[i].slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rob::Rob;
    use proptest::prelude::*;
    use rfcache_isa::{ArchReg, TraceInst};

    fn ids(n: usize) -> Vec<SlotId> {
        let mut rob = Rob::new(n);
        (0..n)
            .map(|i| rob.push(i as u64, TraceInst::load(ArchReg::int(1), ArchReg::int(2), 0, 0)))
            .collect()
    }

    #[test]
    fn load_waits_for_unknown_store_addresses() {
        let s = ids(3);
        let mut lsq = Lsq::new(8);
        lsq.insert(s[0], 0, true, 0x40);
        lsq.insert(s[1], 1, true, 0x80);
        lsq.insert(s[2], 2, false, 0x40);
        assert!(!lsq.prior_store_addresses_known(2));
        lsq.store_address_ready(0);
        assert!(!lsq.prior_store_addresses_known(2));
        lsq.store_address_ready(1);
        assert!(lsq.prior_store_addresses_known(2));
    }

    #[test]
    fn forwarding_from_nearest_older_store() {
        let s = ids(4);
        let mut lsq = Lsq::new(8);
        lsq.insert(s[0], 0, true, 0x100); // far store, same word
        lsq.insert(s[1], 1, true, 0x100); // near store, same word
        lsq.insert(s[2], 2, false, 0x104); // same 8-byte word as 0x100
        lsq.store_data_ready(0);
        lsq.store_address_ready(1); // near store: address only
        assert_eq!(lsq.search_older_stores(2, 0x104), StoreSearch::MustWait);
        lsq.store_data_ready(1);
        assert_eq!(lsq.search_older_stores(2, 0x104), StoreSearch::Forward);
    }

    #[test]
    fn no_conflict_when_addresses_differ() {
        let s = ids(2);
        let mut lsq = Lsq::new(8);
        lsq.insert(s[0], 0, true, 0x100);
        lsq.insert(s[1], 1, false, 0x200);
        lsq.store_data_ready(0);
        assert_eq!(lsq.search_older_stores(1, 0x200), StoreSearch::NoConflict);
    }

    #[test]
    fn younger_stores_are_ignored() {
        let s = ids(2);
        let mut lsq = Lsq::new(8);
        lsq.insert(s[0], 0, false, 0x100);
        lsq.insert(s[1], 1, true, 0x100);
        lsq.store_data_ready(1);
        assert_eq!(lsq.search_older_stores(0, 0x100), StoreSearch::NoConflict);
    }

    #[test]
    fn squash_and_remove() {
        let s = ids(3);
        let mut lsq = Lsq::new(8);
        lsq.insert(s[0], 0, true, 0x40);
        lsq.insert(s[1], 1, false, 0x40);
        lsq.insert(s[2], 2, false, 0x80);
        lsq.squash_younger(1);
        assert_eq!(lsq.len(), 2);
        lsq.remove(0);
        assert_eq!(lsq.len(), 1);
        assert!(lsq.slot_of(1).is_some());
        assert!(lsq.slot_of(2).is_none());
    }

    #[test]
    #[should_panic(expected = "program order")]
    fn out_of_order_insert_rejected() {
        let s = ids(2);
        let mut lsq = Lsq::new(8);
        lsq.insert(s[0], 5, false, 0);
        lsq.insert(s[1], 3, false, 0);
    }

    /// One step of a random LSQ workload; the `usize` picks an entry
    /// (modulo the occupancy) and the `u64` is an address or seq gap.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Insert { store: bool, gap: u64 },
        AddressReady(usize),
        DataReady(usize),
        CommitHead,
        Remove(usize),
        Squash(usize),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..2, 1u64..4).prop_map(|(st, gap)| Op::Insert { store: st == 1, gap }),
            (0usize..64).prop_map(Op::AddressReady),
            (0usize..64).prop_map(Op::DataReady),
            Just(Op::CommitHead),
            (0usize..64).prop_map(Op::Remove),
            (0usize..64).prop_map(Op::Squash),
        ]
    }

    /// Applies `op` the way the core would: address and data readiness
    /// only for queued stores, commit only of a completed head, squash
    /// at a queued entry. `Remove` takes out any entry, as the API allows.
    fn apply(lsq: &mut Lsq, slot: SlotId, next_seq: &mut InstSeq, op: Op) {
        let pick = |k: usize, stores_only: bool| {
            let cands: Vec<&LsqEntry> =
                lsq.entries.iter().filter(|e| !stores_only || e.is_store).collect();
            (!cands.is_empty()).then(|| cands[k % cands.len()].seq)
        };
        match op {
            Op::Insert { store, gap } => {
                if !lsq.is_full() {
                    *next_seq += gap;
                    lsq.insert(slot, *next_seq, store, *next_seq * 8);
                }
            }
            Op::AddressReady(k) => {
                if let Some(seq) = pick(k, true) {
                    lsq.store_address_ready(seq);
                }
            }
            Op::DataReady(k) => {
                if let Some(seq) = pick(k, true) {
                    lsq.store_data_ready(seq);
                }
            }
            Op::CommitHead => {
                if let Some(&head) = lsq.entries.front() {
                    if !head.is_store || head.data_ready {
                        lsq.remove(head.seq);
                    }
                }
            }
            Op::Remove(k) => {
                if let Some(seq) = pick(k, false) {
                    lsq.remove(seq);
                }
            }
            Op::Squash(k) => {
                if let Some(seq) = pick(k, false) {
                    lsq.squash_younger(seq);
                }
            }
        }
    }

    proptest! {
        /// The O(1) gate agrees with the walk from the head for every
        /// queued entry and one past the tail, after every step.
        #[test]
        fn gate_matches_the_scan(ops in proptest::collection::vec(arb_op(), 1..200)) {
            let slot = ids(1)[0];
            let mut lsq = Lsq::new(16);
            let mut next_seq = 0;
            for op in ops {
                apply(&mut lsq, slot, &mut next_seq, op);
                let tail = lsq.entries.back().map_or(0, |e| e.seq + 1);
                for seq in lsq.entries.iter().map(|e| e.seq).chain([tail]) {
                    prop_assert_eq!(
                        lsq.prior_store_addresses_known(seq),
                        lsq.prior_store_addresses_known_by_scan(seq),
                        "seq {} after {:?}", seq, op
                    );
                }
                let oldest_unknown =
                    lsq.entries.iter().find(|e| e.is_store && !e.addr_known).map(|e| e.seq);
                prop_assert_eq!(lsq.store_gate(), oldest_unknown, "after {:?}", op);
            }
        }
    }

    #[test]
    fn capacity() {
        let s = ids(2);
        let mut lsq = Lsq::new(2);
        lsq.insert(s[0], 0, false, 0);
        assert!(!lsq.is_full());
        lsq.insert(s[1], 1, false, 0);
        assert!(lsq.is_full());
    }
}
