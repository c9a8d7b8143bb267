//! Saturating prediction counters and flat counter tables.
//!
//! The paper studies both 1-bit automatons (last-outcome) and the classic
//! 2-bit saturating counter (Smith, 1981). [`SatCounter`] is the value-level
//! automaton; [`CounterTable`] is the dense array of such automatons that
//! backs every tag-less predictor bank in this crate.

use crate::predictor::Outcome;
use std::fmt;

/// The width of the per-entry prediction automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CounterKind {
    /// A 1-bit automaton: predict the last outcome.
    OneBit,
    /// The classic 2-bit saturating counter.
    TwoBit,
    /// A saturating counter of arbitrary width (3..=7 bits).
    ///
    /// Wider counters are hypothesized in the paper's "distributed predictor
    /// encodings" future-work question; they are provided so that the
    /// ablation harness can sweep counter width.
    Wide(u8),
}

impl CounterKind {
    /// Number of state bits per counter.
    #[inline]
    pub fn bits(self) -> u8 {
        match self {
            CounterKind::OneBit => 1,
            CounterKind::TwoBit => 2,
            CounterKind::Wide(b) => b,
        }
    }

    /// Largest representable counter value (`2^bits - 1`).
    #[inline]
    pub fn max_value(self) -> u8 {
        ((1u16 << self.bits()) - 1) as u8
    }

    /// The conventional weakly-not-taken initial value (`max/2`, i.e. the
    /// highest state that still predicts not-taken).
    #[inline]
    pub fn neutral(self) -> u8 {
        self.max_value() >> 1
    }

    /// The lowest value that predicts taken (weakly taken).
    #[inline]
    pub fn weakly_taken(self) -> u8 {
        self.neutral() + 1
    }

    /// Construct a kind from a bit width.
    ///
    /// # Errors
    ///
    /// Returns `None` when `bits` is 0 or larger than 7.
    pub fn from_bits(bits: u8) -> Option<CounterKind> {
        match bits {
            1 => Some(CounterKind::OneBit),
            2 => Some(CounterKind::TwoBit),
            3..=7 => Some(CounterKind::Wide(bits)),
            _ => None,
        }
    }
}

impl fmt::Display for CounterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-bit", self.bits())
    }
}

/// A single saturating up/down counter.
///
/// The counter predicts taken when its value is in the upper half of its
/// range (most-significant bit set). On a taken outcome it increments,
/// saturating at `2^bits - 1`; on a not-taken outcome it decrements,
/// saturating at 0.
///
/// ```
/// use bpred_core::counter::{CounterKind, SatCounter};
/// use bpred_core::predictor::Outcome;
///
/// let mut c = SatCounter::new(CounterKind::TwoBit);
/// assert_eq!(c.predict(), Outcome::NotTaken); // starts weakly not-taken
/// c.train(Outcome::Taken);
/// assert_eq!(c.predict(), Outcome::Taken);    // now weakly taken
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SatCounter {
    kind: CounterKind,
    value: u8,
}

impl SatCounter {
    /// A counter initialized to the weakly-not-taken neutral state.
    #[inline]
    pub fn new(kind: CounterKind) -> Self {
        SatCounter {
            kind,
            value: kind.neutral(),
        }
    }

    /// A counter whose initial state immediately predicts `outcome` weakly.
    ///
    /// Used by the tagged predictors when allocating an entry for a freshly
    /// seen substream.
    #[inline]
    pub fn seeded(kind: CounterKind, outcome: Outcome) -> Self {
        let value = match outcome {
            Outcome::Taken => kind.weakly_taken(),
            Outcome::NotTaken => kind.neutral(),
        };
        SatCounter { kind, value }
    }

    /// The automaton width.
    #[inline]
    pub fn kind(&self) -> CounterKind {
        self.kind
    }

    /// The raw counter value.
    #[inline]
    pub fn value(&self) -> u8 {
        self.value
    }

    /// The direction this counter currently predicts.
    #[inline]
    pub fn predict(&self) -> Outcome {
        Outcome::from(self.value > self.kind.neutral())
    }

    /// Train the counter with an observed outcome.
    #[inline]
    pub fn train(&mut self, outcome: Outcome) {
        self.value = step(self.value, self.kind.max_value(), outcome);
    }

    /// `true` when the counter is saturated in the direction it predicts
    /// (strongly taken or strongly not-taken).
    #[inline]
    pub fn is_strong(&self) -> bool {
        self.value == 0 || self.value == self.kind.max_value()
    }
}

impl Default for SatCounter {
    fn default() -> Self {
        SatCounter::new(CounterKind::TwoBit)
    }
}

#[inline]
fn step(value: u8, max: u8, outcome: Outcome) -> u8 {
    match outcome {
        Outcome::Taken => {
            if value < max {
                value + 1
            } else {
                value
            }
        }
        Outcome::NotTaken => value.saturating_sub(1),
    }
}

/// A dense, power-of-two-sized array of saturating counters.
///
/// This is the storage of one tag-less predictor bank: a
/// [`CounterBanks`] of a single bank. Counters are stored as bytes for
/// simulation speed; [`CounterTable::storage_bits`] reports the hardware
/// cost (`entries * kind.bits()`).
///
/// Fresh tables boot in the *weakly taken* state: a cold tag-less
/// predictor then behaves like the static always-taken predictor the
/// paper uses as its miss fallback, instead of pessimistically predicting
/// not-taken for every unseen branch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterTable {
    bank: CounterBanks,
}

impl CounterTable {
    /// Create a table of `2^entries_log2` counters, all weakly taken.
    ///
    /// # Panics
    ///
    /// Panics if `entries_log2 > 30` (a 1-Gi-entry table is assumed to be a
    /// configuration mistake).
    pub fn new(entries_log2: u32, kind: CounterKind) -> Self {
        CounterTable {
            bank: CounterBanks::new(1, entries_log2, kind),
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        1 << self.bank.entries_log2()
    }

    /// Always `false`: tables have at least one entry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `log2` of the number of entries.
    #[inline]
    pub fn entries_log2(&self) -> u32 {
        self.bank.entries_log2()
    }

    /// The automaton width used by every entry.
    #[inline]
    pub fn kind(&self) -> CounterKind {
        self.bank.kind()
    }

    /// Predict from entry `index` (wrapped into range).
    #[inline]
    pub fn predict(&self, index: u64) -> Outcome {
        self.bank.predict(0, index)
    }

    /// Train entry `index` with `outcome`.
    #[inline]
    pub fn train(&mut self, index: u64, outcome: Outcome) {
        self.bank.train(0, index, outcome);
    }

    /// Predict from entry `index`, then train it with `outcome` — the
    /// fused step of a single-bank predictor. Returns the prediction
    /// made before training.
    #[inline]
    pub fn predict_train(&mut self, index: u64, outcome: Outcome) -> Outcome {
        self.bank.predict_train(0, index, outcome)
    }

    /// Raw value of entry `index`, for tests and diagnostics.
    #[inline]
    pub fn value(&self, index: u64) -> u8 {
        self.bank.value(0, index)
    }

    /// Overwrite entry `index` with a raw value, saturating to the legal
    /// range. Intended for tests and for seeding experiments.
    #[inline]
    pub fn set_value(&mut self, index: u64, value: u8) {
        self.bank.set_value(0, index, value);
    }

    /// Hardware storage cost in bits.
    #[inline]
    pub fn storage_bits(&self) -> u64 {
        self.bank.storage_bits()
    }

    /// Reset every entry to the boot (weakly taken) state.
    pub fn reset(&mut self) {
        self.bank.reset();
    }
}

/// `banks` equal, power-of-two-sized banks of saturating counters in one
/// flat allocation: entry `i` of bank `b` lives at
/// `(b << entries_log2) | i`, so a multi-bank predictor reaches every
/// bank through one base pointer and no per-bank indirection.
///
/// Every bank boots weakly taken, like [`CounterTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterBanks {
    kind: CounterKind,
    entries_log2: u32,
    mask: u64,
    /// `kind.neutral()` and `kind.max_value()`, hoisted out of the hot
    /// path.
    neutral: u8,
    max: u8,
    cells: Vec<u8>,
}

impl CounterBanks {
    /// `banks` banks of `2^entries_log2` counters each, all weakly taken.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or `entries_log2 > 30`.
    pub fn new(banks: usize, entries_log2: u32, kind: CounterKind) -> Self {
        assert!(banks > 0, "a counter array needs at least one bank");
        assert!(
            entries_log2 <= 30,
            "counter table of 2^{entries_log2} entries is unreasonably large"
        );
        CounterBanks {
            kind,
            entries_log2,
            mask: (1u64 << entries_log2) - 1,
            neutral: kind.neutral(),
            max: kind.max_value(),
            cells: vec![kind.weakly_taken(); banks << entries_log2],
        }
    }

    /// Number of banks.
    #[inline]
    pub fn banks(&self) -> usize {
        self.cells.len() >> self.entries_log2
    }

    /// `log2` of the entries per bank.
    #[inline]
    pub fn entries_log2(&self) -> u32 {
        self.entries_log2
    }

    /// The automaton width used by every entry.
    #[inline]
    pub fn kind(&self) -> CounterKind {
        self.kind
    }

    #[inline]
    fn slot(&self, bank: usize, index: u64) -> usize {
        (bank << self.entries_log2) | (index & self.mask) as usize
    }

    /// Predict from entry `index` (wrapped into range) of `bank`.
    #[inline]
    pub fn predict(&self, bank: usize, index: u64) -> Outcome {
        Outcome::from(self.cells[self.slot(bank, index)] > self.neutral)
    }

    /// Train entry `index` of `bank` with `outcome`.
    #[inline]
    pub fn train(&mut self, bank: usize, index: u64, outcome: Outcome) {
        let slot = self.slot(bank, index);
        self.cells[slot] = step(self.cells[slot], self.max, outcome);
    }

    /// Predict from, then train, entry `index` of `bank`; returns the
    /// prediction made before training.
    #[inline]
    pub fn predict_train(&mut self, bank: usize, index: u64, outcome: Outcome) -> Outcome {
        let slot = self.slot(bank, index);
        let value = self.cells[slot];
        self.cells[slot] = step(value, self.max, outcome);
        Outcome::from(value > self.neutral)
    }

    /// One majority-vote step across the first `B` banks, bank `b` read
    /// at `idx[b]`: returns the majority prediction made before
    /// training, then trains — every bank, or under `partial` update
    /// (section 4.1) only the banks that agreed with a *correct*
    /// majority (a dissenting bank is presumed to serve another
    /// substream). The shared step of the skewed predictors.
    #[inline(always)]
    pub fn vote_step<const B: usize>(
        &mut self,
        idx: [u64; B],
        outcome: Outcome,
        partial: bool,
    ) -> Outcome {
        // Plain loops, not `array::from_fn`/`map`: their closures do not
        // reliably inline, and this runs once per simulated branch.
        let mut slots = [0usize; B];
        let mut values = [0u8; B];
        for b in 0..B {
            slots[b] = self.slot(b, idx[b]);
            values[b] = self.cells[slots[b]];
        }
        let taken = values.iter().filter(|&&v| v > self.neutral).count();
        let overall = Outcome::from(2 * taken > B);
        let train_all = !partial || overall != outcome;
        for (slot, value) in slots.into_iter().zip(values) {
            if train_all || (value > self.neutral) == outcome.is_taken() {
                self.cells[slot] = step(value, self.max, outcome);
            }
        }
        overall
    }

    /// Raw value of entry `index` of `bank`, for tests and diagnostics.
    #[inline]
    pub fn value(&self, bank: usize, index: u64) -> u8 {
        self.cells[self.slot(bank, index)]
    }

    /// Overwrite entry `index` of `bank` with a raw value, saturating to
    /// the legal range. Intended for tests and for seeding experiments.
    #[inline]
    pub fn set_value(&mut self, bank: usize, index: u64, value: u8) {
        let slot = self.slot(bank, index);
        self.cells[slot] = value.min(self.max);
    }

    /// Hardware storage cost in bits, all banks together.
    #[inline]
    pub fn storage_bits(&self) -> u64 {
        self.cells.len() as u64 * u64::from(self.kind.bits())
    }

    /// Reset every entry to the boot (weakly taken) state.
    pub fn reset(&mut self) {
        self.cells.fill(self.kind.weakly_taken());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_bit_accounting() {
        assert_eq!(CounterKind::OneBit.bits(), 1);
        assert_eq!(CounterKind::TwoBit.bits(), 2);
        assert_eq!(CounterKind::Wide(5).bits(), 5);
        assert_eq!(CounterKind::OneBit.max_value(), 1);
        assert_eq!(CounterKind::TwoBit.max_value(), 3);
        assert_eq!(CounterKind::TwoBit.neutral(), 1);
        assert_eq!(CounterKind::TwoBit.weakly_taken(), 2);
    }

    #[test]
    fn kind_from_bits_bounds() {
        assert_eq!(CounterKind::from_bits(0), None);
        assert_eq!(CounterKind::from_bits(1), Some(CounterKind::OneBit));
        assert_eq!(CounterKind::from_bits(2), Some(CounterKind::TwoBit));
        assert_eq!(CounterKind::from_bits(3), Some(CounterKind::Wide(3)));
        assert_eq!(CounterKind::from_bits(8), None);
    }

    #[test]
    fn one_bit_counter_tracks_last_outcome() {
        let mut c = SatCounter::new(CounterKind::OneBit);
        for &o in &[
            Outcome::Taken,
            Outcome::NotTaken,
            Outcome::Taken,
            Outcome::Taken,
            Outcome::NotTaken,
        ] {
            c.train(o);
            assert_eq!(c.predict(), o, "1-bit predicts exactly the last outcome");
        }
    }

    #[test]
    fn two_bit_counter_hysteresis() {
        // A loop branch: taken many times, then one exit. The 2-bit counter
        // should still predict taken on the next loop entry; 1-bit flips.
        let mut two = SatCounter::new(CounterKind::TwoBit);
        let mut one = SatCounter::new(CounterKind::OneBit);
        for _ in 0..10 {
            two.train(Outcome::Taken);
            one.train(Outcome::Taken);
        }
        two.train(Outcome::NotTaken);
        one.train(Outcome::NotTaken);
        assert_eq!(two.predict(), Outcome::Taken, "hysteresis retained");
        assert_eq!(one.predict(), Outcome::NotTaken, "1-bit flipped");
    }

    #[test]
    fn counter_saturates_at_both_ends() {
        let mut c = SatCounter::new(CounterKind::TwoBit);
        for _ in 0..100 {
            c.train(Outcome::Taken);
        }
        assert_eq!(c.value(), 3);
        assert!(c.is_strong());
        for _ in 0..100 {
            c.train(Outcome::NotTaken);
        }
        assert_eq!(c.value(), 0);
        assert!(c.is_strong());
    }

    #[test]
    fn seeded_counter_predicts_seed() {
        let t = SatCounter::seeded(CounterKind::TwoBit, Outcome::Taken);
        assert_eq!(t.predict(), Outcome::Taken);
        assert!(!t.is_strong(), "seed is weak");
        let n = SatCounter::seeded(CounterKind::TwoBit, Outcome::NotTaken);
        assert_eq!(n.predict(), Outcome::NotTaken);
    }

    #[test]
    fn table_indexing_wraps() {
        let mut t = CounterTable::new(4, CounterKind::TwoBit);
        assert_eq!(t.len(), 16);
        t.train(3, Outcome::Taken);
        t.train(3 + 16, Outcome::Taken); // same entry modulo table size
        assert_eq!(t.predict(3), Outcome::Taken);
        assert_eq!(t.value(3), 3.min(t.kind().max_value()));
    }

    #[test]
    fn table_storage_bits() {
        let t = CounterTable::new(12, CounterKind::TwoBit);
        assert_eq!(t.storage_bits(), 4096 * 2);
        let t = CounterTable::new(10, CounterKind::OneBit);
        assert_eq!(t.storage_bits(), 1024);
    }

    #[test]
    fn table_boots_and_resets_weakly_taken() {
        let mut t = CounterTable::new(4, CounterKind::TwoBit);
        for i in 0..16 {
            assert_eq!(t.predict(i), Outcome::Taken, "cold table predicts taken");
            t.train(i, Outcome::NotTaken);
            t.train(i, Outcome::NotTaken);
        }
        t.reset();
        for i in 0..16 {
            assert_eq!(t.value(i), CounterKind::TwoBit.weakly_taken());
        }
    }

    #[test]
    fn wide_counter_range() {
        let mut c = SatCounter::new(CounterKind::Wide(4));
        assert_eq!(c.value(), 7);
        for _ in 0..20 {
            c.train(Outcome::Taken);
        }
        assert_eq!(c.value(), 15);
        c.train(Outcome::NotTaken);
        assert_eq!(c.value(), 14);
        assert_eq!(c.predict(), Outcome::Taken);
    }
}
