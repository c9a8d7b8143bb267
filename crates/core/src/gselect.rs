//! The *gselect* predictor: low-order address bits concatenated with the
//! global history (GAs in Yeh and Patt's terminology).

use crate::counter::CounterKind;
use crate::error::ConfigError;
use crate::index::IndexFunction;
use crate::onebank::OneBank;
use crate::predictor::{BranchPredictor, Outcome, Prediction};

/// A single-bank, tag-less gselect predictor.
///
/// The index concatenates `n - k` low-order address bits above the `k`
/// history bits. As the paper notes, with long histories and small tables
/// gselect retains very few address bits (e.g. only 4 address bits for a
/// 64K-entry table with a 12-bit history), which is why it aliases more
/// than gshare in figures 1 and 2.
///
/// ```
/// use bpred_core::prelude::*;
///
/// let mut p = Gselect::new(12, 6, CounterKind::TwoBit)?;
/// let pc = 0x4000_0040;
/// let _ = p.predict(pc);
/// p.update(pc, Outcome::NotTaken);
/// # Ok::<(), bpred_core::error::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gselect {
    inner: OneBank,
}

impl Gselect {
    /// A gselect predictor with `2^entries_log2` counters and
    /// `history_bits` bits of global history.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `entries_log2` is 0 or above 30, or if
    /// `history_bits` exceeds 64.
    pub fn new(
        entries_log2: u32,
        history_bits: u32,
        kind: CounterKind,
    ) -> Result<Self, ConfigError> {
        Ok(Gselect {
            inner: OneBank::new(entries_log2, history_bits, kind, IndexFunction::Gselect)?,
        })
    }

    /// `log2` of the table size.
    pub fn entries_log2(&self) -> u32 {
        self.inner.entries_log2()
    }

    /// History register length.
    pub fn history_bits(&self) -> u32 {
        self.inner.history_bits()
    }

    /// Counter width.
    pub fn counter_kind(&self) -> CounterKind {
        self.inner.counter_kind()
    }
}

impl BranchPredictor for Gselect {
    fn predict(&mut self, pc: u64) -> Prediction {
        self.inner.predict(pc)
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        self.inner.update(pc, outcome);
    }

    #[inline(always)]
    fn step(&mut self, pc: u64, outcome: Outcome) -> Prediction {
        self.inner.step_with(IndexFunction::Gselect, pc, outcome)
    }

    fn record_unconditional(&mut self, pc: u64) {
        self.inner.record_unconditional(pc);
    }

    fn name(&self) -> String {
        format!(
            "gselect {} h={} {}",
            1u64 << self.inner.entries_log2(),
            self.inner.history_bits(),
            self.inner.counter_kind()
        )
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
impl Gselect {
    /// Test hook: clear only the history register, keeping table contents.
    fn reset_history_for_test(&mut self) {
        self.inner.clear_history_for_test();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_history_correlated_pattern() {
        let mut p = Gselect::new(10, 4, CounterKind::TwoBit).unwrap();
        let pc = 0x1000;
        let mut last = Outcome::NotTaken;
        for _ in 0..64 {
            last = last.flipped();
            p.update(pc, last);
        }
        let mut correct = 0;
        for _ in 0..32 {
            last = last.flipped();
            if p.predict(pc).outcome == last {
                correct += 1;
            }
            p.update(pc, last);
        }
        assert_eq!(correct, 32);
    }

    #[test]
    fn long_history_discards_address_bits() {
        // With k >= n the index is pure history: two different branches
        // under the same history always collide — the gselect weakness.
        let mut p = Gselect::new(8, 8, CounterKind::TwoBit).unwrap();
        for _ in 0..4 {
            p.update(0x1000, Outcome::Taken);
            // Restore the same history state before touching the alias:
            // one taken update shifts in a single 1; do a full period of 8.
        }
        // Rather than reconstructing history by hand, check the index
        // function property directly through prediction equality of a
        // freshly reset predictor (history = 0 for both lookups).
        let mut q = Gselect::new(8, 8, CounterKind::TwoBit).unwrap();
        q.update(0x1000, Outcome::Taken); // trains entry for hist=0
        q.reset();
        q.update(0x2000, Outcome::Taken); // same entry: hist=0 again
        q.reset();
        // Train strongly through one address; read through the other.
        for _ in 0..2 {
            q.update(0x1000, Outcome::Taken);
            q.reset_history_for_test();
        }
        assert_eq!(q.predict(0x2000).outcome, Outcome::Taken);
    }

    #[test]
    fn name_and_storage() {
        let p = Gselect::new(14, 12, CounterKind::TwoBit).unwrap();
        assert_eq!(p.name(), "gselect 16384 h=12 2-bit");
        assert_eq!(p.storage_bits(), 16384 * 2);
    }

    #[test]
    fn rejects_bad_config() {
        assert!(Gselect::new(0, 4, CounterKind::TwoBit).is_err());
        assert!(Gselect::new(10, 200, CounterKind::TwoBit).is_err());
    }
}
