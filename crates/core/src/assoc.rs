//! Tagged associative predictor tables.
//!
//! Section 3.3 of the paper points out that removing conflicts the way
//! caches do requires tags identifying `(address, history)` pairs — tags
//! that are disproportionately wide next to a 2-bit counter. These
//! structures exist in this crate as *yardsticks*, not proposals:
//!
//! * [`FullyAssociative`] — the N-entry fully-associative LRU table used in
//!   figure 8 ("a 3×N-entry gskewed predictor with partial update delivers
//!   approximately the same performance as an N-entry fully-associative LRU
//!   predictor"). On a miss it falls back to a static *always taken*
//!   prediction, exactly as in the paper's figure 8 experiment.
//! * [`SetAssociative`] — the intermediate design the paper alludes to but
//!   does not evaluate; provided for the associativity ablation.

use crate::counter::{CounterKind, SatCounter};
use crate::error::ConfigError;
use crate::hash::PairMap;
use crate::history::GlobalHistory;
use crate::index::IndexFunction;
use crate::predictor::{BranchPredictor, Outcome, Prediction};
use crate::vector::InfoVector;

/// Modeled tag width in bits for storage accounting: a 30-bit partial
/// address tag, as a generous real-hardware estimate.
const ADDR_TAG_BITS: u64 = 30;

const NIL: usize = usize::MAX;

/// The static prediction returned when a tagged table misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MissPolicy {
    /// Predict taken on a miss (the paper's figure 8 choice).
    #[default]
    AlwaysTaken,
    /// Predict not-taken on a miss.
    AlwaysNotTaken,
}

impl MissPolicy {
    #[inline]
    fn outcome(self) -> Outcome {
        match self {
            MissPolicy::AlwaysTaken => Outcome::Taken,
            MissPolicy::AlwaysNotTaken => Outcome::NotTaken,
        }
    }
}

#[derive(Debug, Clone)]
struct Node {
    key: (u64, u64),
    counter: SatCounter,
    prev: usize,
    next: usize,
}

/// A fully-associative, LRU-replaced predictor table tagged with complete
/// `(address, history)` pairs.
///
/// All operations are O(1): a hash map locates entries, and an intrusive
/// doubly-linked list over a slab maintains recency order.
///
/// ```
/// use bpred_core::prelude::*;
///
/// let mut p = FullyAssociative::new(1024, 4, CounterKind::TwoBit)?;
/// let pc = 0x1000;
/// assert!(p.predict(pc).novel, "cold table misses");
/// p.update(pc, Outcome::NotTaken);
/// # Ok::<(), bpred_core::error::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FullyAssociative {
    capacity: usize,
    map: PairMap<usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    history: GlobalHistory,
    kind: CounterKind,
    miss_policy: MissPolicy,
}

impl FullyAssociative {
    /// A table of `capacity` entries with `history_bits` of global history.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `capacity` is zero or `history_bits`
    /// exceeds 64.
    pub fn new(capacity: usize, history_bits: u32, kind: CounterKind) -> Result<Self, ConfigError> {
        if capacity == 0 {
            return Err(ConfigError::invalid(
                "capacity",
                capacity,
                "must be nonzero",
            ));
        }
        if history_bits > 64 {
            return Err(ConfigError::invalid(
                "history_bits",
                history_bits,
                "must be at most 64",
            ));
        }
        Ok(FullyAssociative {
            capacity,
            map: PairMap::with_capacity_and_hasher(capacity, Default::default()),
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            history: GlobalHistory::new(history_bits),
            kind,
            miss_policy: MissPolicy::AlwaysTaken,
        })
    }

    /// Change the static prediction used on a miss.
    pub fn with_miss_policy(mut self, policy: MissPolicy) -> Self {
        self.miss_policy = policy;
        self
    }

    /// Table capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// History register length.
    pub fn history_bits(&self) -> u32 {
        self.history.len()
    }

    #[inline]
    fn key(&self, pc: u64) -> (u64, u64) {
        self.history.vector(pc).pair()
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn touch(&mut self, i: usize) {
        if self.head == i {
            return;
        }
        self.unlink(i);
        self.push_front(i);
    }

    fn insert(&mut self, key: (u64, u64), counter: SatCounter) {
        let slot = if self.map.len() >= self.capacity {
            // Evict the least recently used entry.
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            self.map.remove(&self.nodes[victim].key);
            self.nodes[victim].key = key;
            self.nodes[victim].counter = counter;
            victim
        } else if let Some(slot) = self.free.pop() {
            self.nodes[slot].key = key;
            self.nodes[slot].counter = counter;
            slot
        } else {
            self.nodes.push(Node {
                key,
                counter,
                prev: NIL,
                next: NIL,
            });
            self.nodes.len() - 1
        };
        self.push_front(slot);
        self.map.insert(key, slot);
    }
}

impl BranchPredictor for FullyAssociative {
    fn predict(&mut self, pc: u64) -> Prediction {
        match self.map.get(&self.key(pc)) {
            Some(&i) => Prediction::of(self.nodes[i].counter.predict()),
            None => Prediction::novel(self.miss_policy.outcome()),
        }
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        self.step(pc, outcome);
    }

    #[inline(always)]
    fn step(&mut self, pc: u64, outcome: Outcome) -> Prediction {
        let key = self.key(pc);
        let prediction = if let Some(&i) = self.map.get(&key) {
            let counter = &mut self.nodes[i].counter;
            let predicted = counter.predict();
            counter.train(outcome);
            self.touch(i);
            Prediction::of(predicted)
        } else {
            self.insert(key, SatCounter::seeded(self.kind, outcome));
            Prediction::novel(self.miss_policy.outcome())
        };
        self.history.push(outcome);
        prediction
    }

    fn record_unconditional(&mut self, _pc: u64) {
        self.history.push(Outcome::Taken);
    }

    fn name(&self) -> String {
        format!(
            "fa-lru {} h={} {}",
            self.capacity,
            self.history.len(),
            self.kind
        )
    }

    fn storage_bits(&self) -> u64 {
        // tag + counter per entry, plus log2(capacity) recency bits.
        let lru_bits = usize::BITS - (self.capacity - 1).leading_zeros();
        self.capacity as u64
            * (ADDR_TAG_BITS
                + u64::from(self.history.len())
                + u64::from(self.kind.bits())
                + u64::from(lru_bits))
    }

    fn reset(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.history.clear();
    }
}

#[derive(Debug, Clone)]
struct Way {
    key: (u64, u64),
    counter: SatCounter,
    stamp: u64,
}

/// A set-associative, LRU-replaced predictor table tagged with complete
/// `(address, history)` pairs.
///
/// Sets are selected with a gshare-style hash of the pair so that set
/// conflicts mirror those of the equivalent direct-mapped table; within a
/// set, replacement is true LRU via timestamps.
#[derive(Debug, Clone)]
pub struct SetAssociative {
    sets_log2: u32,
    ways: usize,
    table: Vec<Vec<Way>>,
    history: GlobalHistory,
    kind: CounterKind,
    miss_policy: MissPolicy,
    tick: u64,
}

impl SetAssociative {
    /// A table of `2^sets_log2` sets of `ways` entries each.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `sets_log2` is out of `1..=30`, `ways` is
    /// zero, or `history_bits` exceeds 64.
    pub fn new(
        sets_log2: u32,
        ways: usize,
        history_bits: u32,
        kind: CounterKind,
    ) -> Result<Self, ConfigError> {
        if sets_log2 == 0 || sets_log2 > 30 {
            return Err(ConfigError::invalid(
                "sets_log2",
                sets_log2,
                "must be in 1..=30",
            ));
        }
        if ways == 0 {
            return Err(ConfigError::invalid("ways", ways, "must be nonzero"));
        }
        if history_bits > 64 {
            return Err(ConfigError::invalid(
                "history_bits",
                history_bits,
                "must be at most 64",
            ));
        }
        Ok(SetAssociative {
            sets_log2,
            ways,
            table: vec![Vec::new(); 1 << sets_log2],
            history: GlobalHistory::new(history_bits),
            kind,
            miss_policy: MissPolicy::AlwaysTaken,
            tick: 0,
        })
    }

    /// Change the static prediction used on a miss.
    pub fn with_miss_policy(mut self, policy: MissPolicy) -> Self {
        self.miss_policy = policy;
        self
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.ways << self.sets_log2
    }

    #[inline]
    fn locate(&self, pc: u64) -> (usize, (u64, u64)) {
        let v = InfoVector::new(pc, self.history.value(), self.history.len());
        let set = IndexFunction::Gshare.index(&v, self.sets_log2) as usize;
        (set, v.pair())
    }
}

impl BranchPredictor for SetAssociative {
    fn predict(&mut self, pc: u64) -> Prediction {
        let (set, key) = self.locate(pc);
        match self.table[set].iter().find(|w| w.key == key) {
            Some(w) => Prediction::of(w.counter.predict()),
            None => Prediction::novel(self.miss_policy.outcome()),
        }
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        self.step(pc, outcome);
    }

    #[inline(always)]
    fn step(&mut self, pc: u64, outcome: Outcome) -> Prediction {
        let (set, key) = self.locate(pc);
        self.tick += 1;
        let tick = self.tick;
        let ways = self.ways;
        let kind = self.kind;
        let set = &mut self.table[set];
        let prediction = if let Some(w) = set.iter_mut().find(|w| w.key == key) {
            let predicted = w.counter.predict();
            w.counter.train(outcome);
            w.stamp = tick;
            Prediction::of(predicted)
        } else {
            if set.len() < ways {
                set.push(Way {
                    key,
                    counter: SatCounter::seeded(kind, outcome),
                    stamp: tick,
                });
            } else {
                // Replace the least recently used way.
                let victim = set
                    .iter_mut()
                    .min_by_key(|w| w.stamp)
                    .expect("nonzero ways");
                victim.key = key;
                victim.counter = SatCounter::seeded(kind, outcome);
                victim.stamp = tick;
            }
            Prediction::novel(self.miss_policy.outcome())
        };
        self.history.push(outcome);
        prediction
    }

    fn record_unconditional(&mut self, _pc: u64) {
        self.history.push(Outcome::Taken);
    }

    fn name(&self) -> String {
        format!(
            "setassoc {}x{}w h={} {}",
            1u64 << self.sets_log2,
            self.ways,
            self.history.len(),
            self.kind
        )
    }

    fn storage_bits(&self) -> u64 {
        let lru_bits = usize::BITS - (self.ways - 1).leading_zeros();
        self.capacity() as u64
            * (ADDR_TAG_BITS
                + u64::from(self.history.len())
                + u64::from(self.kind.bits())
                + u64::from(lru_bits))
    }

    fn reset(&mut self) {
        for set in &mut self.table {
            set.clear();
        }
        self.history.clear();
        self.tick = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fa_hits_after_insert() {
        let mut p = FullyAssociative::new(4, 0, CounterKind::TwoBit).unwrap();
        p.update(0x1000, Outcome::NotTaken);
        let pred = p.predict(0x1000);
        assert!(!pred.novel);
        assert_eq!(pred.outcome, Outcome::NotTaken);
    }

    #[test]
    fn fa_miss_predicts_always_taken() {
        let mut p = FullyAssociative::new(4, 0, CounterKind::TwoBit).unwrap();
        let pred = p.predict(0x9999_0000);
        assert!(pred.novel);
        assert_eq!(pred.outcome, Outcome::Taken, "figure 8 static fallback");
        let mut q = FullyAssociative::new(4, 0, CounterKind::TwoBit)
            .unwrap()
            .with_miss_policy(MissPolicy::AlwaysNotTaken);
        assert_eq!(q.predict(0x1000).outcome, Outcome::NotTaken);
    }

    #[test]
    fn fa_evicts_least_recently_used() {
        let mut p = FullyAssociative::new(2, 0, CounterKind::TwoBit).unwrap();
        p.update(0x1000, Outcome::Taken); // A
        p.update(0x2000, Outcome::Taken); // B
        p.update(0x1000, Outcome::Taken); // touch A -> LRU is B
        p.update(0x3000, Outcome::Taken); // C evicts B
        assert!(!p.predict(0x1000).novel, "A still resident");
        assert!(p.predict(0x2000).novel, "B evicted");
        assert!(!p.predict(0x3000).novel, "C resident");
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn fa_capacity_never_exceeded() {
        let mut p = FullyAssociative::new(8, 2, CounterKind::TwoBit).unwrap();
        for i in 0..1000u64 {
            p.update(0x1000 + 4 * i, Outcome::from(i % 2 == 0));
            assert!(p.len() <= 8);
        }
    }

    #[test]
    fn fa_distinguishes_histories() {
        let mut p = FullyAssociative::new(16, 2, CounterKind::TwoBit).unwrap();
        // Same pc under different histories occupies different entries.
        p.update(0x1000, Outcome::Taken); // hist 00 -> 01
        p.update(0x1000, Outcome::Taken); // hist 01 -> 11
        p.update(0x1000, Outcome::Taken); // hist 11 -> 11
        assert!(p.len() >= 2);
    }

    #[test]
    fn fa_counter_trains_on_hits() {
        let mut p = FullyAssociative::new(4, 0, CounterKind::TwoBit).unwrap();
        p.update(0x1000, Outcome::Taken);
        assert_eq!(p.predict(0x1000).outcome, Outcome::Taken);
        p.update(0x1000, Outcome::NotTaken);
        // weakly-taken trained down once -> neutral (predicts not-taken)
        assert_eq!(p.predict(0x1000).outcome, Outcome::NotTaken);
    }

    #[test]
    fn fa_reset_and_reuse() {
        let mut p = FullyAssociative::new(4, 2, CounterKind::TwoBit).unwrap();
        for i in 0..100u64 {
            p.update(4 * i, Outcome::Taken);
        }
        p.reset();
        assert!(p.is_empty());
        assert!(p.predict(0).novel);
        p.update(0, Outcome::Taken);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn fa_storage_accounts_tags() {
        let p = FullyAssociative::new(1024, 4, CounterKind::TwoBit).unwrap();
        // Per entry: 30 tag + 4 hist + 2 counter + 10 LRU = 46 bits.
        assert_eq!(p.storage_bits(), 1024 * 46);
    }

    #[test]
    fn sa_basic_hit_and_miss() {
        let mut p = SetAssociative::new(4, 2, 0, CounterKind::TwoBit).unwrap();
        assert!(p.predict(0x1000).novel);
        p.update(0x1000, Outcome::NotTaken);
        assert_eq!(p.predict(0x1000).outcome, Outcome::NotTaken);
        assert!(!p.predict(0x1000).novel);
    }

    #[test]
    fn sa_lru_within_set() {
        // Force three keys into the same set of a 2-way table; the first
        // (least recently used) is the one replaced.
        let mut p = SetAssociative::new(1, 2, 0, CounterKind::TwoBit).unwrap();
        // With 1 set bit, addresses 0x0, 0x8, 0x10 (word-aligned pcs 0, 8, 16)
        // may fall in either set; use pcs that share the single set bit.
        let a = 0x0;
        let b = 0x8;
        let c = 0x10;
        let (sa, _) = p.locate(a);
        let (sb, _) = p.locate(b);
        let (sc, _) = p.locate(c);
        // 0x0>>2=0, 0x8>>2=2, 0x10>>2=4: all even -> set bit 0.
        assert_eq!(sa, sb);
        assert_eq!(sb, sc);
        p.update(a, Outcome::Taken);
        p.update(b, Outcome::Taken);
        p.update(a, Outcome::Taken); // touch a
        p.update(c, Outcome::Taken); // evicts b
        assert!(!p.predict(a).novel);
        assert!(p.predict(b).novel);
        assert!(!p.predict(c).novel);
    }

    #[test]
    fn sa_capacity() {
        let p = SetAssociative::new(4, 4, 0, CounterKind::TwoBit).unwrap();
        assert_eq!(p.capacity(), 64);
        assert_eq!(p.ways(), 4);
    }

    #[test]
    fn config_validation() {
        assert!(FullyAssociative::new(0, 0, CounterKind::TwoBit).is_err());
        assert!(FullyAssociative::new(4, 65, CounterKind::TwoBit).is_err());
        assert!(SetAssociative::new(0, 2, 0, CounterKind::TwoBit).is_err());
        assert!(SetAssociative::new(4, 0, 0, CounterKind::TwoBit).is_err());
    }

    #[test]
    fn names() {
        let p = FullyAssociative::new(256, 4, CounterKind::TwoBit).unwrap();
        assert_eq!(p.name(), "fa-lru 256 h=4 2-bit");
        let q = SetAssociative::new(6, 4, 8, CounterKind::OneBit).unwrap();
        assert_eq!(q.name(), "setassoc 64x4w h=8 1-bit");
    }
}
